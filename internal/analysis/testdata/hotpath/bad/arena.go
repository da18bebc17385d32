// arena.go is the arena-escape half of the bad fixture: session-scoped
// borrows stored into storage that outlives the session.
package core

import "fractal/internal/arena"

type frameHolder struct{ buf []byte }

type frameWrap struct{ h frameHolder }

var leakedBuf []byte

func fieldEscape(h *frameHolder, sess *arena.Session) {
	h.buf = sess.Bytes(64) //want hotpath:2
}

func fieldEscapeViaLocal(h *frameHolder, sess *arena.Session) {
	b := sess.Bytes(64)
	b = sess.Grow(b, 128)
	h.buf = b[:0] //want hotpath:2
}

func packageEscape(sess *arena.Session) {
	b := sess.Bytes(8)
	leakedBuf = b //want hotpath:2
}

func channelEscape(ch chan []byte, sess *arena.Session) {
	b := sess.Bytes(8)
	ch <- b //want hotpath:2
}

func compositeEscape(w *frameWrap, sess *arena.Session) {
	b := sess.Bytes(16)
	w.h = frameHolder{buf: b} //want hotpath:2
}

func appendEscape(h *frameHolder, sess *arena.Session) {
	b := append(sess.Bytes(8)[:0], 1)
	h.buf = b //want hotpath:2
}
