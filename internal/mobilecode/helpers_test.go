package mobilecode

import (
	"fmt"
	"strings"
)

// Program and module builders shared by this package's tests, including
// the external mobilecode_test package.

// MustAssemble is Assemble for known-good test sources; it panics on
// error.
func MustAssemble(src string) Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Disassemble renders a program back into assembly.
func Disassemble(p Program) string {
	var b strings.Builder
	for _, in := range p {
		if in.Op == OpCall {
			fmt.Fprintf(&b, "\t%s %s\n", in.Op, in.Sym)
		} else {
			fmt.Fprintf(&b, "\t%s\n", in.Op)
		}
	}
	return b.String()
}

// buildBuiltins packages all four case-study PADs.
func buildBuiltins(version string, signer *Signer) ([]*Module, error) {
	specs := BuiltinSpecs()
	out := make([]*Module, 0, len(specs))
	for _, s := range specs {
		m, err := BuildModule(s, version, signer)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
