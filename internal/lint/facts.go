// Cross-package facts: properties of functions that the flow-sensitive
// analyzers consult so they can see through helper calls — "putFrameBuf
// releases its first argument back to a pool", "dropStore invalidates the
// receiver's lazy store", "muxTable.claim acquires muxTable.mu". Facts are
// computed once over every loaded package (the driver loads the whole target
// graph in one `go list -export` pass), so an analyzer looking at package A
// knows what a helper defined in package B does without re-analysing it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockEvent is one entry in a function's linearised lock trace: an
// acquisition, a release, or a call to another function (whose transitive
// acquisitions count as happening under the locks currently held).
type lockEvent struct {
	kind   int // one of evAcquire, evRelease, evCall
	class  string
	callee *types.Func
	pos    token.Pos
}

const (
	evAcquire = iota
	evRelease
	evCall
)

// Facts is the cross-package knowledge base shared by all analyzers of one
// run. All maps are keyed by the defining *types.Func, which is identical
// across packages because the driver loads everything through one FileSet
// and importer.
type Facts struct {
	funcs []*types.Func // deterministic iteration order (load × file × decl)

	// releasesParam[f][i]: f returns its i-th parameter to a pool (sync.Pool
	// Put, a pool-like put method, or Close) on at least one path.
	releasesParam map[*types.Func]map[int]bool
	// returnsPooled: f's return value is obtained from a pool-like Get.
	returnsPooled map[*types.Func]bool
	// wgDone: f calls (*sync.WaitGroup).Done somewhere in its body.
	wgDone map[*types.Func]bool
	// readsShutdown: f receives from (or ranges over) a chan struct{}.
	readsShutdown map[*types.Func]bool
	// mapOrdered: f returns a slice built by appending under a map range
	// without sorting it afterwards — its element order is schedule-dependent.
	mapOrdered map[*types.Func]bool
	// invalidates: f assigns a storage.Store-typed field (the
	// mutation-invalidation contract's dropStore shape).
	invalidates map[*types.Func]bool
	// lockEvents: f's linearised mutex trace.
	lockEvents map[*types.Func][]lockEvent

	transMemo map[*types.Func]map[string]token.Pos
}

// paramFlow records "fn passes its paramIdx-th parameter as the argIdx-th
// argument of callee", for the releaser fixpoint.
type paramFlow struct {
	fn       *types.Func
	paramIdx int
	callee   *types.Func
	argIdx   int
}

// ComputeFacts builds the knowledge base for a set of loaded packages.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		releasesParam: make(map[*types.Func]map[int]bool),
		returnsPooled: make(map[*types.Func]bool),
		wgDone:        make(map[*types.Func]bool),
		readsShutdown: make(map[*types.Func]bool),
		mapOrdered:    make(map[*types.Func]bool),
		invalidates:   make(map[*types.Func]bool),
		lockEvents:    make(map[*types.Func][]lockEvent),
		transMemo:     make(map[*types.Func]map[string]token.Pos),
	}
	var flows []paramFlow
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				f.funcs = append(f.funcs, fn)
				flows = append(flows, f.scanFunc(pkg.Info, fn, fd)...)
			}
		}
	}
	// Fixpoint: releasing a value by handing it to a releaser is releasing it.
	for changed := true; changed; {
		changed = false
		for _, fl := range flows {
			if f.releasesParam[fl.callee][fl.argIdx] && !f.releasesParam[fl.fn][fl.paramIdx] {
				f.setReleases(fl.fn, fl.paramIdx)
				changed = true
			}
		}
	}
	return f
}

func (f *Facts) setReleases(fn *types.Func, idx int) {
	m := f.releasesParam[fn]
	if m == nil {
		m = make(map[int]bool)
		f.releasesParam[fn] = m
	}
	m[idx] = true
}

// scanFunc extracts every fact from one function body.
func (f *Facts) scanFunc(info *types.Info, fn *types.Func, fd *ast.FuncDecl) []paramFlow {
	// Parameter name -> index, for the releaser facts.
	paramIdx := make(map[types.Object]int)
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				paramIdx[obj] = idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	deferRanges := collectDeferRanges(fd.Body)
	inDefer := func(pos token.Pos) bool {
		for _, r := range deferRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	var flows []paramFlow
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeFunc(info, n)
			// Releaser facts: pool puts, Close, and hand-offs to callees.
			if isPoolPut(info, n) {
				for _, arg := range n.Args {
					if i, ok := argParam(info, paramIdx, arg); ok {
						f.setReleases(fn, i)
					}
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if i, ok := argParam(info, paramIdx, sel.X); ok {
					f.setReleases(fn, i)
				}
			}
			if callee != nil {
				for ai, arg := range n.Args {
					if pi, ok := argParam(info, paramIdx, arg); ok {
						flows = append(flows, paramFlow{fn: fn, paramIdx: pi, callee: callee, argIdx: ai})
					}
				}
				// WaitGroup.Done anywhere (including deferred: that is the
				// usual shape) marks the function as a tracked goroutine body.
				if callee.Name() == "Done" && recvIsSyncType(callee, "WaitGroup") {
					f.wgDone[fn] = true
				}
				// Lock trace. Deferred unlocks hold to function end, so they
				// produce no release event; deferred calls are skipped.
				if !inDefer(n.Pos()) {
					f.lockEvent(info, fn, n, callee)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isShutdownChan(info, n.X) {
				f.readsShutdown[fn] = true
			}
		case *ast.RangeStmt:
			if isShutdownChan(info, n.X) {
				f.readsShutdown[fn] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if invalidatesStoreLHS(info, lhs) {
					f.invalidates[fn] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isPoolGetExpr(info, res) {
					f.returnsPooled[fn] = true
				}
			}
		}
		return true
	})
	f.scanMapOrdered(info, fn, fd)
	return flows
}

// lockEvent appends acquire/release/call entries for one call expression.
func (f *Facts) lockEvent(info *types.Info, fn *types.Func, call *ast.CallExpr, callee *types.Func) {
	if recvIsSyncType(callee, "Mutex") || recvIsSyncType(callee, "RWMutex") {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		class, ok := lockClassOf(info, sel.X)
		if !ok {
			return
		}
		switch callee.Name() {
		case "Lock", "RLock":
			f.lockEvents[fn] = append(f.lockEvents[fn], lockEvent{kind: evAcquire, class: class, pos: call.Pos()})
		case "Unlock", "RUnlock":
			f.lockEvents[fn] = append(f.lockEvents[fn], lockEvent{kind: evRelease, class: class, pos: call.Pos()})
		}
		return
	}
	if callee.Pkg() != nil {
		f.lockEvents[fn] = append(f.lockEvents[fn], lockEvent{kind: evCall, callee: callee, pos: call.Pos()})
	}
}

// transitiveAcquires returns every lock class fn (or anything it calls,
// transitively) acquires, with one representative position each.
func (f *Facts) transitiveAcquires(fn *types.Func) map[string]token.Pos {
	if m, ok := f.transMemo[fn]; ok {
		return m
	}
	f.transMemo[fn] = map[string]token.Pos{} // cycle guard
	out := make(map[string]token.Pos)
	for _, ev := range f.lockEvents[fn] {
		switch ev.kind {
		case evAcquire:
			if _, ok := out[ev.class]; !ok {
				out[ev.class] = ev.pos
			}
		case evCall:
			for class, pos := range f.transitiveAcquires(ev.callee) {
				if _, ok := out[class]; !ok {
					out[class] = pos
				}
			}
		}
	}
	f.transMemo[fn] = out
	return out
}

// scanMapOrdered records whether fn returns a slice appended under a map
// range and never sorted afterwards.
func (f *Facts) scanMapOrdered(info *types.Info, fn *types.Func, fd *ast.FuncDecl) {
	tainted := mapOrderedVars(info, fd.Body)
	if len(tainted) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if obj := exprObj(info, res); obj != nil && tainted[obj] {
				f.mapOrdered[fn] = true
			}
		}
		return true
	})
}

// mapOrderedVars finds variables whose element order is map iteration order:
// appended to under a `for range m` with no later sort call in the body.
func mapOrderedVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if target := appendTargetInfo(info, rng, call); target != nil {
				out[target] = true
			}
			return true
		})
		return true
	})
	// A sort anywhere after taint kills the fact (lexical approximation).
	for obj := range out {
		if sortCalledOn(info, body, obj) {
			delete(out, obj)
		}
	}
	return out
}

// sortCalledOn reports whether a sort.*/slices.Sort* call targets obj
// anywhere in the body.
func sortCalledOn(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		isSortPkg := funcPkgPath(fn) == "sort" || funcPkgPath(fn) == "slices"
		if !isSortPkg || (!strings.HasPrefix(fn.Name(), "Sort") && !isSortShorthand(fn.Name())) {
			return true
		}
		if exprObj(info, call.Args[0]) == obj {
			found = true
		}
		return !found
	})
	return found
}

// ---- shared predicates ----

// collectDeferRanges returns the source ranges of all defer statements.
func collectDeferRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			out = append(out, [2]token.Pos{d.Pos(), d.End()})
		}
		return true
	})
	return out
}

// argParam resolves an argument expression to a parameter index of the
// enclosing function ((&p) and p both count).
func argParam(info *types.Info, paramIdx map[types.Object]int, arg ast.Expr) (int, bool) {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := info.Uses[id]
	if obj == nil {
		return 0, false
	}
	i, ok := paramIdx[obj]
	return i, ok
}

// recvIsSyncType reports whether fn is a method of sync.<name>.
func recvIsSyncType(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	path, n := namedPathName(sig.Recv().Type())
	return path == "sync" && n == name
}

// poolLikeType reports whether t (or *t) declares both a Get/get and a
// Put/put method — the structural signature of an object pool. sync.Pool
// matches; so would a project-local pool with get/put methods. A Get whose
// last result is a comma-ok bool is a lookup (cache.Cache, map wrappers),
// not a pool acquisition: its result is owned by the caller, never returned.
func poolLikeType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	var hasGet, hasPut bool
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Get", "get":
			sig, ok := ms.At(i).Obj().Type().(*types.Signature)
			if ok && sig.Results().Len() >= 2 {
				if b, ok := sig.Results().At(sig.Results().Len() - 1).Type().(*types.Basic); ok && b.Kind() == types.Bool {
					continue
				}
			}
			hasGet = true
		case "Put", "put":
			hasPut = true
		}
	}
	return hasGet && hasPut
}

// isPoolGet reports whether call invokes a Get/get method on a pool-like
// type, or a function known (via facts) to return a pooled value. The facts
// variant is checked by the analyzer, not here.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Name() != "Get" && fn.Name() != "get" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return poolLikeType(sig.Recv().Type())
}

// isPoolPut reports whether call invokes a Put/put method on a pool-like type.
func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Name() != "Put" && fn.Name() != "put" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return poolLikeType(sig.Recv().Type())
}

// isPoolGetExpr unwraps parens and type assertions around a pool Get call.
func isPoolGetExpr(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	return ok && isPoolGet(info, call)
}

// isShutdownChan reports whether e has type chan struct{} (any direction).
func isShutdownChan(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// isStoreType reports whether t is (a pointer to) the storage.Store
// interface of this module's peer-local storage engine.
func isStoreType(t types.Type) bool {
	path, name := namedPathName(t)
	return name == "Store" &&
		(path == "ripple/internal/storage" || strings.HasSuffix(path, "internal/storage"))
}

// invalidatesStoreLHS reports whether an assignment target drops or rebuilds
// a lazy store: a storage.Store field (p.store = nil), the whole store table
// (s.repStores = make(...)), or one entry of it (s.repStores[id] =
// storage.New(...)).
func invalidatesStoreLHS(info *types.Info, lhs ast.Expr) bool {
	e := ast.Unparen(lhs)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	t := obj.Type()
	if m, ok := t.Underlying().(*types.Map); ok {
		t = m.Elem()
	}
	return isStoreType(t)
}

// lockClassOf names the lock an expression denotes, stably across functions:
// field locks are "pkg.Type.field", package-level locks "pkg.var", and
// promoted embedded locks "pkg.Type.<embedded>". Local mutexes get a
// position-qualified name so distinct locals never alias.
func lockClassOf(info *types.Info, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[e.Sel]
		if obj == nil {
			return "", false
		}
		// Owner type: the type of the operand the field is selected from.
		if tv, ok := info.Types[e.X]; ok {
			if path, name := namedPathName(tv.Type); name != "" {
				return path + "." + name + "." + e.Sel.Name, true
			}
		}
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + e.Sel.Name, true
		}
		return e.Sel.Name, true
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), true
		}
		// Promoted embedded mutex: e is a struct value, Lock resolved via
		// embedding — classify by the struct type.
		if path, name := namedPathName(obj.Type()); name != "" {
			return path + "." + name + ".<embedded>", true
		}
		return fmt.Sprintf("%s#%d", obj.Name(), obj.Pos()), true
	}
	return "", false
}

// infoAdapter exposes the one go/types lookup the CFG builder needs.
type infoAdapter struct{ info *types.Info }

func (a infoAdapter) calleePathName(call *ast.CallExpr) (string, string, bool) {
	fn := calleeFunc(a.info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// appendTargetInfo is appendTarget for callers that hold a *types.Info
// rather than a Pass (the facts scanner and wiredet).
func appendTargetInfo(info *types.Info, rng *ast.RangeStmt, call *ast.CallExpr) types.Object {
	var target types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) != call || i >= len(as.Lhs) {
				continue
			}
			target = exprObj(info, as.Lhs[i])
		}
		return true
	})
	if target == nil {
		return nil
	}
	if target.Pos() >= rng.Body.Pos() && target.Pos() < rng.Body.End() {
		return nil // declared inside the loop body
	}
	return target
}
