// Package codec is the errdiscard good fixture: counts and errors are
// consumed, io.ReadFull replaces bare short-read-prone Reads (its count
// may be compared with 0 alone), a Read count compared with 0 is also
// kept, and bytes.Buffer writes (which cannot fail) are exempt.
package codec

import (
	"bytes"
	"io"
)

func good(r io.Reader, buf *bytes.Buffer, b []byte) (int, error) {
	buf.Write(b)
	n, err := io.ReadFull(r, b)
	if err != nil {
		return n, err
	}
	m, err := r.Read(b)
	return m, err
}

func goodHeader(r io.Reader, hdr []byte) error {
	if n, err := io.ReadFull(r, hdr); err != nil {
		if n == 0 {
			return io.EOF
		}
		return err
	}
	return nil
}

type refill struct {
	buf []byte
	w   int
}

func (b *refill) fill(r io.Reader) error {
	n, err := r.Read(b.buf)
	if n <= 0 {
		return err
	}
	b.w = n
	return nil
}
