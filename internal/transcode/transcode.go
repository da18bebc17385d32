// Package transcode implements content-adaptation transforms, the
// extension the paper sketches in Section 5: "Fractal provides a general
// framework for other adaptation functionality as well by extending the
// PAD into other adaptation functions, e.g. content adaptation." A
// Transcoder is a server-side PAD layer that rewrites the content itself —
// here, full fidelity versus a downscaled thumbnail rendition for weak
// devices — before a communication-optimization PAD encodes it for the
// wire. Transcoders are deterministic, so old and new versions transform
// consistently and differential protocols keep working on the adapted
// stream.
package transcode

import (
	"fmt"
	"time"

	"fractal/internal/codec"
	"fractal/internal/workload"
)

// Transcoder rewrites application content into an adapted rendition. The
// transform must be deterministic: two calls on equal input yield equal
// output. Implementations must also be safe for concurrent use — the
// application server calls Transform from many sessions at once — which
// in practice means keeping them stateless, as Identity and Thumbnail
// are.
type Transcoder interface {
	// Name returns the transcoder's name, the one New takes.
	Name() string
	// Transform rewrites one serialized page.
	Transform(page []byte) ([]byte, error)
	// Cost reports the server-side computing cost of the transform on the
	// 500 MHz reference CPU (client side is zero: the adapted content IS
	// the content the client consumes).
	Cost() codec.CostModel
}

// Transcoder names, as New takes them.
const (
	NameIdentity  = "full"
	NameThumbnail = "thumbnail"
)

// New constructs a transcoder by name; an unknown name is an error.
func New(name string) (Transcoder, error) {
	switch name {
	case NameIdentity:
		return Identity{}, nil
	case NameThumbnail:
		return NewThumbnail(2)
	}
	return nil, fmt.Errorf("transcode: unknown transcoder %q", name)
}

// Identity is the full-fidelity rendition: content passes through
// untouched.
type Identity struct{}

// Name implements Transcoder.
func (Identity) Name() string { return NameIdentity }

// Transform implements Transcoder.
func (Identity) Transform(page []byte) ([]byte, error) {
	return append([]byte(nil), page...), nil
}

// Cost implements Transcoder.
func (Identity) Cost() codec.CostModel { return codec.CostModel{} }

// Thumbnail downscales every image of a page by the configured factor
// (averaging runs of bytes, an intensity decimation of the synthetic
// medical imagery) and leaves text intact. A factor of 2 roughly halves
// the page.
type Thumbnail struct {
	factor int
}

// NewThumbnail returns a downscaler with the given reduction factor.
func NewThumbnail(factor int) (*Thumbnail, error) {
	if factor < 2 || factor > 64 {
		return nil, fmt.Errorf("transcode: thumbnail factor %d out of range [2,64]", factor)
	}
	return &Thumbnail{factor: factor}, nil
}

// Name implements Transcoder.
func (t *Thumbnail) Name() string { return NameThumbnail }

// Factor returns the reduction factor.
func (t *Thumbnail) Factor() int { return t.factor }

// Cost implements Transcoder: a cheap linear pass over the content.
func (t *Thumbnail) Cost() codec.CostModel {
	return codec.CostModel{ServerNsPerByte: 45, ServerFixed: 100 * time.Microsecond}
}

// Transform implements Transcoder.
func (t *Thumbnail) Transform(page []byte) ([]byte, error) {
	p, err := workload.Parse(page)
	if err != nil {
		return nil, fmt.Errorf("transcode: thumbnail: %w", err)
	}
	for i, img := range p.Images {
		p.Images[i] = decimate(img, t.factor)
	}
	return p.Bytes(), nil
}

// decimate averages each run of `factor` bytes into one output byte.
func decimate(img []byte, factor int) []byte {
	if len(img) == 0 {
		return nil
	}
	out := make([]byte, 0, (len(img)+factor-1)/factor)
	for i := 0; i < len(img); i += factor {
		end := i + factor
		if end > len(img) {
			end = len(img)
		}
		sum := 0
		for _, b := range img[i:end] {
			sum += int(b)
		}
		out = append(out, byte(sum/(end-i)))
	}
	return out
}
