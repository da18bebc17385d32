// Package inp is the wiretaint good fixture: wire-decoded integers that
// pass a sane upper-bound check (or never size an allocation), plus one
// justified allow annotation.
package inp

import (
	"bufio"
	"encoding/binary"
	"io"
)

const maxSane = 1 << 20

func checkedMake(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxSane {
		return nil, io.ErrUnexpectedEOF
	}
	return make([]byte, n), nil
}

func clampedMake(r *bufio.Reader) []byte {
	n, _ := binary.ReadUvarint(r)
	reserve := n
	if reserve > maxSane {
		reserve = maxSane
	}
	return make([]byte, 0, reserve)
}

func minClamped(r *bufio.Reader) []byte {
	n, _ := binary.ReadUvarint(r)
	return make([]byte, min(n, maxSane))
}

func boundAgainstRemaining(r *bufio.Reader, remaining int) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	// A non-constant clean bound (bytes actually available) sanitizes.
	if int(n) > remaining {
		return nil, io.ErrUnexpectedEOF
	}
	return make([]byte, n), nil
}

func constantSizes(r *bufio.Reader) []byte {
	// Reading the value without sizing anything from it is fine.
	_, _ = binary.ReadUvarint(r)
	return make([]byte, 64)
}

func allowedSite(r *bufio.Reader) []byte {
	n, _ := binary.ReadUvarint(r)
	// The caller guarantees the reader is length-limited upstream.
	//fractal:allow wiretaint — fixture: reader is length-capped upstream
	return make([]byte, n)
}

// A count read with binary.Uvarint and bounded by the bytes left, as the
// shared wire reader's Count does.
func countBoundedByInput(b []byte) map[string]string {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil
	}
	return make(map[string]string, n)
}
