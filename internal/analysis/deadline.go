package analysis

import (
	"go/ast"
	"go/types"
)

// deadlineScope lists the packages that perform real network I/O and must
// bound every conn operation with a deadline: an unguarded Read on a
// stalled peer parks the session goroutine forever, which is exactly the
// failure mode the transport hardening work (bounded calls, degraded mode)
// exists to prevent.
var deadlineScope = map[string]bool{
	"fractal/internal/client":          true,
	"fractal/internal/proxy":           true,
	"fractal/internal/appserver":       true,
	"fractal/internal/cdn":             true,
	"fractal/internal/inp":             true,
	"fractal/internal/inp/conformance": true,
}

// deadlineFrameFn is the INP framing entry point that reads a whole
// message off a raw stream; passing it a deadline-capable conn without
// arming a deadline is as unbounded as calling Read directly. (Writes have
// no such entry point: frames leave only through a FrameWriter, whose
// owning Conn arms the deadline at Flush.)
const deadlineFrameFn = "ReadMessage"

// DeadlineAnalyzer flags unbounded conn I/O: Read/Write (and INP frame
// calls) on deadline-capable connections inside functions that never arm a
// deadline. Genuine unbounded sites (an accept loop's first byte, a pipe
// that cannot stall) carry //fractal:allow deadline.
var DeadlineAnalyzer = &Analyzer{
	Name: "deadline",
	Doc:  "flag net.Conn Read/Write/frame calls not guarded by a deadline or SetTimeout",
	Run:  runDeadline,
}

func runDeadline(pass *Pass) {
	if !deadlineScope[pass.Pkg.Path] {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if armsDeadline(fd.Body) {
				continue
			}
			checkUnboundedIO(pass, fd)
		}
	}
}

// armsDeadline reports whether the function body contains any call that
// arms an I/O bound: a *Deadline setter (SetReadDeadline, SetDeadline, the
// repo's armDeadline helpers) or inp.Conn's SetTimeout.
func armsDeadline(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		}
		if name == "SetTimeout" || containsDeadline(name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// containsDeadline matches the Deadline-setter naming convention without
// pulling in strings for a two-site check.
func containsDeadline(name string) bool {
	for i := 0; i+len("Deadline") <= len(name); i++ {
		if name[i:i+len("Deadline")] == "Deadline" {
			return true
		}
	}
	return false
}

// checkUnboundedIO reports every deadline-capable conn operation in a
// function that never arms one.
func checkUnboundedIO(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			switch {
			case (fun.Sel.Name == "Read" || fun.Sel.Name == "Write") && isConnMethod(pass, fun):
				pass.Reportf(call.Pos(),
					"unbounded %s on a deadline-capable connection in %s; arm a deadline/SetTimeout first (or annotate a genuinely unbounded site with //%s deadline)",
					fun.Sel.Name, fd.Name.Name, AllowPrefix)
			case fun.Sel.Name == deadlineFrameFn && firstArgDeadlineCapable(pass, call):
				pass.Reportf(call.Pos(),
					"unbounded %s frame call on a deadline-capable connection in %s; arm a deadline/SetTimeout first (or annotate with //%s deadline)",
					fun.Sel.Name, fd.Name.Name, AllowPrefix)
			}
		case *ast.Ident:
			// Unqualified ReadMessage inside package inp.
			if fun.Name == deadlineFrameFn && firstArgDeadlineCapable(pass, call) {
				pass.Reportf(call.Pos(),
					"unbounded %s frame call on a deadline-capable connection in %s; arm a deadline/SetTimeout first (or annotate with //%s deadline)",
					fun.Name, fd.Name.Name, AllowPrefix)
			}
		}
		return true
	})
}

// isConnMethod reports whether sel resolves to a method whose receiver's
// static type also offers SetReadDeadline — the net.Conn shape, as opposed
// to a plain io.Reader/io.Writer or an in-memory buffer. *os.File carries
// the deadline methods too but local file I/O has no stalled peer to
// guard against, so it is exempt.
func isConnMethod(pass *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if named(recv) == "os.File" {
		return false
	}
	return hasDeadlineMethods(recv)
}

// firstArgDeadlineCapable reports whether the call's first argument is a
// deadline-capable stream.
func firstArgDeadlineCapable(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	if named(tv.Type) == "os.File" {
		return false
	}
	return hasDeadlineMethods(tv.Type)
}

// hasDeadlineMethods reports whether t's method set (or its pointer's)
// includes SetReadDeadline — the marker of a conn that can be bounded and
// therefore must be.
func hasDeadlineMethods(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "SetReadDeadline" {
				return true
			}
		}
	}
	return false
}
