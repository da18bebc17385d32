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

// Disassemble renders a program back into assembly (with numeric jump
// targets as synthesized labels).
func Disassemble(p Program) string {
	targets := map[int64]string{}
	for _, in := range p {
		if in.Op == OpJmp || in.Op == OpJz {
			if _, ok := targets[in.Arg]; !ok {
				targets[in.Arg] = fmt.Sprintf("L%d", in.Arg)
			}
		}
	}
	var b strings.Builder
	for i, in := range p {
		if lbl, ok := targets[int64(i)]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		switch in.Op {
		case OpPush:
			fmt.Fprintf(&b, "\t%s %d\n", in.Op, in.Arg)
		case OpJmp, OpJz:
			fmt.Fprintf(&b, "\t%s %s\n", in.Op, targets[in.Arg])
		case OpCall:
			fmt.Fprintf(&b, "\t%s %s\n", in.Op, in.Sym)
		default:
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
