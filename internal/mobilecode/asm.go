package mobilecode

import (
	"fmt"
	"strings"
)

// Assemble translates a small textual assembly into a Program. Syntax, one
// instruction per line:
//
//	; comment                     (also after instructions)
//	CALL gzip.decode
//	SWAPB
//	HALT
//
// Mnemonics are case-insensitive; CALL takes a host-function symbol and
// every other instruction takes no operand.
func Assemble(src string) (Program, error) {
	var prog Program
	for lineNo, raw := range strings.Split(src, "\n") {
		line, _, _ := strings.Cut(raw, ";")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		mn := strings.ToUpper(fields[0])
		in := Instr{}
		found := false
		for o, name := range opNames {
			if name == mn {
				in.Op, found = o, true
				break
			}
		}
		switch {
		case !found:
			return nil, fmt.Errorf("mobilecode: line %d: unknown mnemonic %q", lineNo+1, mn)
		case len(fields) > 2:
			return nil, fmt.Errorf("mobilecode: line %d: too many operands in %q", lineNo+1, raw)
		case in.Op == OpCall && len(fields) < 2:
			return nil, fmt.Errorf("mobilecode: line %d: CALL needs a symbol", lineNo+1)
		case in.Op != OpCall && len(fields) > 1:
			return nil, fmt.Errorf("mobilecode: line %d: %s takes no operand", lineNo+1, mn)
		}
		if in.Op == OpCall {
			in.Sym = fields[1]
		}
		prog = append(prog, in)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}
