package mobilecode

import (
	"fmt"
	"strconv"

	"fractal/internal/codec"
	"fractal/internal/rabin"
)

// HostTable builds the standard host-function set available to PAD
// programs, configured from a module's Params. These are the primitives a
// PAD composes into a protocol — the equivalent of the class libraries a
// Java PAD links against on the client:
//
//	identity            1 buffer  -> the same buffer
//	gzip.encode/.decode 1 buffer  -> 1 buffer (param "gzip.level")
//	bitmap.encode       2 buffers (old, cur)     -> payload (param "bitmap.block")
//	bitmap.decode       2 buffers (old, payload) -> cur
//	vary.encode         2 buffers (old, cur)     -> payload (params "vary.min", "vary.max", "vary.maskbits")
//	vary.decode         2 buffers (old, payload) -> cur
//	rsync.encode        2 buffers (old, cur)     -> payload (param "rsync.block")
//	rsync.decode        2 buffers (old, payload) -> cur
//
// vary.encode keeps one small chunk-index cache per host table (one table
// per deployed PAD), so a PAD that encodes against the same version
// repeatedly chunks and digests it once. gzip.encode borrows a pooled
// compressor from internal/arena for the length of one call, and
// gzip.decode inflates with state on its own stack; neither keeps anything
// between calls. Every other primitive
// is stateless. None writes its arguments (the HostFunc contract), and only
// identity returns one.
func HostTable(params map[string]string) ([]HostFunc, error) {
	hosts, _, err := HostTableWithCache(params)
	return hosts, err
}

// HostTableWithCache is HostTable, also returning the chunk-index cache of
// the table's vary.encode primitive (for observability).
func HostTableWithCache(params map[string]string) ([]HostFunc, *codec.ChunkCache, error) {
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
		return nil, nil, err
	}
	gz, err := codec.NewGzipLevel(level)
	if err != nil {
		return nil, nil, fmt.Errorf("mobilecode: configuring gzip primitive: %w", err)
	}

	block, err := get("bitmap.block", codec.DefaultBlockSize)
	if err != nil {
		return nil, nil, err
	}
	bm, err := codec.NewBitmap(block)
	if err != nil {
		return nil, nil, fmt.Errorf("mobilecode: configuring bitmap primitive: %w", err)
	}

	ccfg := rabin.DefaultChunkerConfig()
	if ccfg.MinSize, err = get("vary.min", ccfg.MinSize); err != nil {
		return nil, nil, err
	}
	if ccfg.MaxSize, err = get("vary.max", ccfg.MaxSize); err != nil {
		return nil, nil, err
	}
	maskBits, err := get("vary.maskbits", 9)
	if err != nil {
		return nil, nil, err
	}
	if maskBits < 1 || maskBits > 30 {
		return nil, nil, fmt.Errorf("mobilecode: vary.maskbits %d out of range [1,30]", maskBits)
	}
	ccfg.Mask = 1<<maskBits - 1
	ccfg.Magic &= ccfg.Mask
	vb, err := codec.NewVaryBlockConfig(ccfg)
	if err != nil {
		return nil, nil, fmt.Errorf("mobilecode: configuring vary primitive: %w", err)
	}

	rsBlock, err := get("rsync.block", codec.DefaultBlockSize)
	if err != nil {
		return nil, nil, err
	}
	rs, err := codec.NewRsync(rsBlock)
	if err != nil {
		return nil, nil, fmt.Errorf("mobilecode: configuring rsync primitive: %w", err)
	}

	// hostChunkCacheEntries is deliberately small: only vary.encode
	// consults the cache, a client host encodes against at most a handful
	// of versions, and each index entry is a few percent of its content's
	// size.
	const hostChunkCacheEntries = 8
	cache := codec.NewChunkCache(hostChunkCacheEntries)
	vb.UseChunkCache(cache)

	one := func(f func([]byte) ([]byte, error)) func([][]byte) ([][]byte, error) {
		return func(args [][]byte) ([][]byte, error) {
			out, err := f(args[0])
			if err != nil {
				return nil, err
			}
			return [][]byte{out}, nil
		}
	}
	two := func(f func(a, b []byte) ([]byte, error)) func([][]byte) ([][]byte, error) {
		return func(args [][]byte) ([][]byte, error) {
			out, err := f(args[0], args[1])
			if err != nil {
				return nil, err
			}
			return [][]byte{out}, nil
		}
	}

	return []HostFunc{
		{Name: "identity", Arity: 1, Results: 1, Fn: one(func(b []byte) ([]byte, error) { return b, nil })},
		{Name: "gzip.encode", Arity: 1, Results: 1, Fn: one(func(b []byte) ([]byte, error) { return gz.Encode(nil, b) })},
		{Name: "gzip.decode", Arity: 1, Results: 1, Fn: one(func(b []byte) ([]byte, error) { return gz.Decode(nil, b) })},
		{Name: "bitmap.encode", Arity: 2, Results: 1, Fn: two(bm.Encode)},
		{Name: "bitmap.decode", Arity: 2, Results: 1, Fn: two(bm.Decode)},
		{Name: "vary.encode", Arity: 2, Results: 1, Fn: two(vb.Encode)},
		{Name: "vary.decode", Arity: 2, Results: 1, Fn: two(vb.Decode)},
		{Name: "rsync.encode", Arity: 2, Results: 1, Fn: two(rs.Encode)},
		{Name: "rsync.decode", Arity: 2, Results: 1, Fn: two(rs.Decode)},
	}, cache, nil
}
