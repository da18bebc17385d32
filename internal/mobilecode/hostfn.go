package mobilecode

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"fractal/internal/codec"
	"fractal/internal/rabin"
)

// Codecs is one module's primitive state, the codecs its Params
// configure; a deployed PAD's VM hands its Codecs to every call.
type Codecs struct {
	gz codec.Gzip
	bm codec.Bitmap
	vb *codec.VaryBlock
	rs codec.Rsync
	// vary.encode's first call makes cache: a decode-only PAD has none.
	cacheOnce sync.Once
	cache     atomic.Pointer[codec.ChunkCache]
}

// one returns a primitive's single result.
func one(out []byte, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	return [][]byte{out}, nil
}

// primitives is the one host-primitive table: what a PAD composes into a
// protocol — the equivalent of the class libraries a Java PAD links
// against on the client — and each primitive's stack effect:
//
//	identity            1 buffer  -> the same buffer
//	gzip.encode/.decode 1 buffer  -> 1 buffer (param "gzip.level")
//	bitmap.encode       2 buffers (old, cur)     -> payload (param "bitmap.block")
//	bitmap.decode       2 buffers (old, payload) -> cur
//	vary.encode         2 buffers (old, cur)     -> payload (params "vary.min", "vary.max", "vary.maskbits")
//	vary.decode         2 buffers (old, payload) -> cur (old split once per held version)
//	rsync.encode        2 buffers (old, cur)     -> payload (param "rsync.block")
//	rsync.decode        2 buffers (old, payload) -> cur
//
// Load verifies against it and runs a copy of primitiveVM, so a deploy
// builds no host table. vary.encode keeps one small chunk-index cache per
// Codecs (per deployed PAD), so a PAD that encodes against the same
// version repeatedly chunks and digests it once; vary.decode keeps its
// split of a held version on the run's codec.Held. gzip.encode borrows a
// pooled compressor from internal/arena for the length of one call, and
// gzip.decode inflates with state on its own stack; neither keeps anything
// between calls. Every other primitive is stateless. None writes its
// arguments (the HostFunc contract), and only identity returns one.
var primitives = []HostFunc{
	{Name: "identity", Arity: 1, Results: 1, Fn: func(_ *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return one(a[0], nil) }},
	{Name: "gzip.encode", Arity: 1, Results: 1, Fn: func(c *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return one(c.gz.Encode(nil, a[0])) }},
	{Name: "gzip.decode", Arity: 1, Results: 1, Fn: func(c *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return one(c.gz.Decode(nil, a[0])) }},
	{Name: "bitmap.encode", Arity: 2, Results: 1, Fn: func(c *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return one(c.bm.Encode(a[0], a[1])) }},
	{Name: "bitmap.decode", Arity: 2, Results: 1, Fn: func(c *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return one(c.bm.Decode(a[0], a[1])) }},
	{Name: "vary.encode", Arity: 2, Results: 1, Fn: func(c *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) {
		return one(c.varyEncoder().Encode(a[0], a[1]))
	}},
	{Name: "vary.decode", Arity: 2, Results: 1, Fn: varyDecode},
	{Name: "rsync.encode", Arity: 2, Results: 1, Fn: func(c *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return one(c.rs.Encode(a[0], a[1])) }},
	{Name: "rsync.decode", Arity: 2, Results: 1, Fn: func(c *Codecs, _ *codec.Held, a [][]byte) ([][]byte, error) { return one(c.rs.Decode(a[0], a[1])) }},
}

// primitiveVM is the VM over primitives, its name index built once: a
// deployed PAD runs a copy with its own Codecs and sandbox.
var primitiveVM = func() *VM {
	vm, err := NewVM(primitives, DefaultSandbox())
	if err != nil {
		panic(err) // the table is static: a malformed row never runs
	}
	return vm
}()

// HostTable returns primitives bound to Codecs configured from params, for
// a VM built with NewVM, refusing a malformed param as Load does.
func HostTable(params map[string]string) ([]HostFunc, error) {
	c := new(Codecs)
	if err := c.configure(params); err != nil {
		return nil, err
	}
	hosts := slices.Clone(primitives)
	for i, h := range hosts {
		hosts[i].Fn = func(_ *Codecs, held *codec.Held, args [][]byte) ([][]byte, error) { return h.Fn(c, held, args) }
	}
	return hosts, nil
}

// varyDecode is vary.decode, through the run's Held only when old is the
// held version itself, not something a program derived from it.
func varyDecode(c *Codecs, h *codec.Held, a [][]byte) ([][]byte, error) {
	if h.Holds(a[0]) {
		return one(c.vb.DecodeHeld(h, a[1]))
	}
	return one(c.vb.Decode(a[0], a[1]))
}

// varyEncoder returns the vary codec, attaching its chunk-index cache on
// the first call. The cache is deliberately small: a client host encodes
// against a handful of versions, each entry a few percent of its size.
func (c *Codecs) varyEncoder() *codec.VaryBlock {
	c.cacheOnce.Do(func() {
		cache := codec.NewChunkCache(8)
		c.vb.UseChunkCache(cache)
		c.cache.Store(cache)
	})
	return c.vb
}

// configure sets every codec from params, validating each one, those of
// primitives the programs never CALL included.
func (c *Codecs) configure(params map[string]string) error {
	get := func(key string, def int) (int, error) {
		v, ok := params[key]
		if !ok {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("mobilecode: param %q=%q is not an integer: %w", key, v, err)
		}
		return n, nil
	}

	level, err := get("gzip.level", -1)
	if err != nil {
		return err
	}
	gz, err := codec.NewGzipLevel(level)
	if err != nil {
		return fmt.Errorf("mobilecode: configuring gzip primitive: %w", err)
	}

	block, err := get("bitmap.block", codec.DefaultBlockSize)
	if err != nil {
		return err
	}
	bm, err := codec.NewBitmap(block)
	if err != nil {
		return fmt.Errorf("mobilecode: configuring bitmap primitive: %w", err)
	}

	ccfg := rabin.DefaultChunkerConfig()
	if ccfg.MinSize, err = get("vary.min", ccfg.MinSize); err != nil {
		return err
	}
	if ccfg.MaxSize, err = get("vary.max", ccfg.MaxSize); err != nil {
		return err
	}
	maskBits, err := get("vary.maskbits", 9)
	if err != nil {
		return err
	}
	if maskBits < 1 || maskBits > 30 {
		return fmt.Errorf("mobilecode: vary.maskbits %d out of range [1,30]", maskBits)
	}
	ccfg.Mask = 1<<maskBits - 1
	ccfg.Magic &= ccfg.Mask
	vb, err := codec.NewVaryBlockConfig(ccfg)
	if err != nil {
		return fmt.Errorf("mobilecode: configuring vary primitive: %w", err)
	}

	rsBlock, err := get("rsync.block", codec.DefaultBlockSize)
	if err != nil {
		return err
	}
	rs, err := codec.NewRsync(rsBlock)
	if err != nil {
		return fmt.Errorf("mobilecode: configuring rsync primitive: %w", err)
	}
	c.gz, c.bm, c.vb, c.rs = *gz, *bm, vb, *rs
	return nil
}
