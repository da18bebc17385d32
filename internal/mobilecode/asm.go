package mobilecode

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates a small textual assembly into a Program. Syntax, one
// instruction per line:
//
//	; comment                     (also after instructions)
//	label:                        (jump target)
//	PUSH 42
//	JZ   label
//	CALL gzip.encode
//	HALT
//
// Labels resolve to absolute instruction indices. Mnemonics are
// case-insensitive.
func Assemble(src string) (Program, error) {
	type pending struct {
		instr int
		label string
		line  int
	}
	var prog Program
	labels := map[string]int{}
	labelLines := map[string]int{}
	var fixups []pending

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			name := strings.TrimSuffix(line, ":")
			if name == "" || strings.ContainsAny(name, " \t") {
				return nil, fmt.Errorf("mobilecode: line %d: malformed label %q", lineNo+1, raw)
			}
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("mobilecode: line %d: duplicate label %q (first defined at line %d)", lineNo+1, name, labelLines[name])
			}
			labels[name] = len(prog)
			labelLines[name] = lineNo + 1
			continue
		}
		fields := strings.Fields(line)
		mn := strings.ToUpper(fields[0])
		arg := ""
		if len(fields) > 1 {
			arg = fields[1]
		}
		if len(fields) > 2 {
			return nil, fmt.Errorf("mobilecode: line %d: too many operands in %q", lineNo+1, raw)
		}
		var op Op
		found := false
		for o, name := range opNames {
			if name == mn {
				op, found = o, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("mobilecode: line %d: unknown mnemonic %q", lineNo+1, mn)
		}
		in := Instr{Op: op}
		switch op {
		case OpPush:
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mobilecode: line %d: PUSH needs an integer: %v", lineNo+1, err)
			}
			in.Arg = v
		case OpJmp, OpJz:
			if arg == "" {
				return nil, fmt.Errorf("mobilecode: line %d: %s needs a label", lineNo+1, mn)
			}
			fixups = append(fixups, pending{instr: len(prog), label: arg, line: lineNo + 1})
		case OpCall:
			if arg == "" {
				return nil, fmt.Errorf("mobilecode: line %d: CALL needs a symbol", lineNo+1)
			}
			in.Sym = arg
		default:
			if arg != "" {
				return nil, fmt.Errorf("mobilecode: line %d: %s takes no operand", lineNo+1, mn)
			}
		}
		prog = append(prog, in)
	}
	// Resolve all fixups before reporting, so a source with several broken
	// jumps surfaces every undefined label (with its use line) in one pass
	// instead of one per assemble attempt.
	var unresolved []string
	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			unresolved = append(unresolved, fmt.Sprintf("line %d: undefined label %q", f.line, f.label))
			continue
		}
		prog[f.instr].Arg = int64(target)
	}
	if len(unresolved) > 0 {
		return nil, fmt.Errorf("mobilecode: %s", strings.Join(unresolved, "; "))
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}
