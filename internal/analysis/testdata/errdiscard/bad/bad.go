// Package codec is the errdiscard bad fixture: discarded Read counts, a
// Read count only compared with 0, and discarded errors on I/O and codec
// paths.
package codec

import "io"

type enc struct{}

func (enc) Encode(v int) error { return nil }

func bad(r io.Reader, w io.Writer, e enc, buf []byte) error {
	_, err := r.Read(buf) //want errdiscard:2
	_, _ = w.Write(buf)   //want errdiscard:5
	e.Encode(1)           //want errdiscard:2
	return err
}

// badHeader tells a clean boundary from a torn header by n == 0, but a
// bare Read may return fewer bytes than hdr holds with a nil error.
func badHeader(r io.Reader, hdr []byte) error {
	if n, err := r.Read(hdr); err != nil { //want errdiscard:5
		if n == 0 {
			return io.EOF
		}
		return err
	}
	return nil
}
