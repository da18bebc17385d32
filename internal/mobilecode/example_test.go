package mobilecode_test

import (
	"bytes"
	"fmt"

	"fractal/internal/mobilecode"
)

// A PAD program is a pipeline over codec primitives. These two are the
// cascade PAD: a content-defined-chunking delta of the current version
// against the old one, gzip-compressed, and its inverse.
func ExampleAssemble() {
	encode, err := mobilecode.Assemble(`
		CALL vary.encode   ; [old, cur] -> [delta]
		CALL gzip.encode   ; [delta] -> [payload]
		HALT`)
	if err != nil {
		fmt.Println(err)
		return
	}
	decode, err := mobilecode.Assemble(`
		CALL gzip.decode   ; [old, payload] -> [old, delta]
		CALL vary.decode   ; [old, delta] -> [cur]
		HALT`)
	if err != nil {
		fmt.Println(err)
		return
	}
	hosts, err := mobilecode.HostTable(nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	vm, err := mobilecode.NewVM(hosts, mobilecode.DefaultSandbox())
	if err != nil {
		fmt.Println(err)
		return
	}
	old := bytes.Repeat([]byte("pervasive computing adapts its protocols. "), 200)
	cur := append(bytes.Clone(old), "One more sentence."...)
	enc, err := vm.Run(encode, [][]byte{old, cur})
	if err != nil {
		fmt.Println(err)
		return
	}
	payload := enc[len(enc)-1]
	dec, err := vm.Run(decode, [][]byte{old, payload})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("payload smaller than content: %v\n", len(payload) < len(cur))
	fmt.Printf("decoded equals content: %v\n", bytes.Equal(dec[len(dec)-1], cur))
	// Output:
	// payload smaller than content: true
	// decoded equals content: true
}
