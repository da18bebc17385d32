// Package inp is the wiretaint bad fixture: wire-decoded integers sizing
// allocations without a sane upper-bound check.
package inp

import (
	"bufio"
	"encoding/binary"
	"io"
	"slices"
)

func unboundedMake(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n) //want wiretaint:22
	return buf, nil
}

func hugeBoundIsNoBound(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	// 1<<32 is not a sanitizer: a hostile header still forces gigabytes.
	if n > 1<<32 {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n) //want wiretaint:22
	return buf, nil
}

func taintThroughArithmetic(hdr []byte) []byte {
	n := binary.BigEndian.Uint32(hdr)
	total := int(n) * 8
	return make([]byte, total) //want wiretaint:22
}

func taintedCopyN(r *bufio.Reader, w io.Writer) error {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	_, err = io.CopyN(w, r, int64(n)) //want wiretaint:26
	return err
}

func taintedGrow(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	return slices.Grow(buf, int(n)), nil //want wiretaint:26
}

func taintSurvivesJoin(r *bufio.Reader, fallback uint64, wire bool) []byte {
	var n uint64
	if wire {
		n, _ = binary.ReadUvarint(r)
	} else {
		n = fallback
	}
	// May-analysis: tainted on one arm means tainted after the join.
	return make([]byte, n) //want wiretaint:22
}

func checkedThenOverwritten(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, io.ErrUnexpectedEOF
	}
	// Re-reading from the wire re-taints n after the check.
	n, err = binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil //want wiretaint:22
}

// A slice decoder is a source too: a count read with binary.Uvarint sizes
// a table unchecked.
func unboundedSliceCount(b []byte) map[string]string {
	n, _ := binary.Uvarint(b)
	return make(map[string]string, n) //want wiretaint:33
}
