package codec

import "bytes"

// maxDecodeReserve caps the output capacity reserved from an unvalidated
// header length: a hostile curLen (up to the 1<<32 sanity bound) must not
// force a multi-GB allocation before a single op has been checked. Larger
// outputs grow naturally as ops prove themselves.
const maxDecodeReserve = 1 << 20

// output is the result a differencing decoder (Bitmap, Rsync, VaryBlock)
// builds against the old version it decodes against. While the bytes
// added so far are old[:n] it holds nothing but n: a copy of old's own
// bytes at n is free, and any other bytes are compared with old's. At the
// first byte that differs it copies old[:n] into an output of its own. So
// a payload that rebuilds old, or a prefix of it, decodes to old itself
// and allocates nothing.
type output struct {
	old     []byte
	n       int    // bytes added while they were old[:n]
	buf     []byte // the output once it diverged from old; nil until then
	reserve int    // capacity buf starts with
}

// newOutput starts an output against old for a header that claims curLen
// bytes.
func newOutput(old []byte, curLen uint64) output {
	return output{old: old, reserve: int(min(curLen, maxDecodeReserve))}
}

// add appends p.
func (o *output) add(p []byte) {
	if o.buf == nil {
		end := o.n + len(p)
		if end <= len(o.old) && (len(p) == 0 || &p[0] == &o.old[o.n] || bytes.Equal(p, o.old[o.n:end])) {
			o.n = end
			return
		}
		o.buf = append(make([]byte, 0, max(o.reserve, o.n)), o.old[:o.n]...)
	}
	o.buf = append(o.buf, p...)
}

// len is the number of bytes added.
func (o *output) len() int {
	if o.buf == nil {
		return o.n
	}
	return len(o.buf)
}

// bytes returns the output: old[:n], capacity clipped, when every byte
// added was old's own.
func (o *output) bytes() []byte {
	if o.buf == nil {
		return o.old[:o.n:o.n]
	}
	return o.buf
}
