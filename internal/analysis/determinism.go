package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Determinism enforces the repository's replay-determinism contract in the
// packages whose results are asserted bitwise-identical across worker counts
// (the sharded simulator, the parallel pipeline, the experiment runner) and
// in the codecs and SLC stack whose payloads and sizes feed them:
//
//   - `range` over a map is flagged when the loop body is order-dependent —
//     it appends, sends, calls for effect, or writes through anything that
//     outlives the loop other than keyed map writes and integer counters.
//     Key-extract-then-sort loops stay clean by declaring the slice inside
//     the loop's statement scope or carrying an allow comment.
//   - time.Now / time.Since feed wall-clock time into results; benchmarking
//     call sites annotate an allow with their reason.
//   - math/rand's global generator functions are process-seeded; only
//     explicitly seeded sources (rand.New(rand.NewSource(seed))) are
//     deterministic.
//   - Passing a map to an fmt printing verb renders in runtime-sorted order
//     today, but couples output bytes to fmt internals and NaN-keyed maps
//     are unordered even then; result-path printing must iterate sorted
//     keys.
//
// It is the static twin of TestShardedMatchesSerial, the golden trajectory
// fixture and the -race determinism CI steps: those catch a violation on the
// inputs they replay, this catches the construct itself.
var Determinism = &Analyzer{
	Name:  "determinism",
	Doc:   "flag order-dependent map iteration, wall-clock time, unseeded math/rand and map printing on deterministic result paths",
	Match: determinismScope,
	Run:   runDeterminism,
}

// determinismScope limits the analyzer to the packages under the bitwise
// determinism contract. The codecs are in scope because every payload and
// size they produce feeds those results.
func determinismScope(path string) bool {
	return strings.HasPrefix(path, "repro/internal/gpu") ||
		strings.HasPrefix(path, "repro/internal/compress") ||
		strings.HasPrefix(path, "repro/internal/slc") ||
		strings.HasPrefix(path, "repro/internal/pipeline") ||
		strings.HasPrefix(path, "repro/internal/experiments") ||
		strings.HasPrefix(path, "repro/internal/serving")
}

// seededConstructors are the math/rand functions that build an explicitly
// seeded generator rather than drawing from the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDetSelector(pass, n)
			case *ast.CallExpr:
				checkFmtMapArg(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDetSelector flags wall-clock and global-rand references.
func checkDetSelector(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" || obj.Name() == "Since" {
			pass.Reportf(sel.Pos(), "time.%s is wall-clock time on a deterministic path (results must not depend on it)", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods (r.Intn on an explicitly seeded *rand.Rand) are fine; only
		// the package-level functions draw from the process-global generator.
		fn, isFunc := obj.(*types.Func)
		if isFunc && fn.Type().(*types.Signature).Recv() == nil && !seededConstructors[obj.Name()] {
			pass.Reportf(sel.Pos(), "%s.%s draws from the process-global generator; use rand.New(rand.NewSource(seed)) so replays are deterministic", obj.Pkg().Name(), obj.Name())
		}
	}
}

// checkFmtMapArg flags map-typed arguments to fmt printing functions.
func checkFmtMapArg(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return
	}
	if !strings.Contains(obj.Name(), "rint") && obj.Name() != "Errorf" && !strings.Contains(obj.Name(), "ppend") {
		return
	}
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			pass.Reportf(arg.Pos(), "fmt.%s renders map %s whole; print sorted keys explicitly so output bytes never depend on map internals", obj.Name(), types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkMapRange flags order-dependent bodies of range-over-map loops.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	d := &rangeChecker{pass: pass, rng: rng}
	d.stmts(rng.Body.List)
	if d.why != "" {
		pass.Reportf(rng.Pos(), "range over map %s has an order-dependent body (%s); iterate sorted keys or restructure",
			types.ExprString(rng.X), d.why)
	}
}

// rangeChecker walks a range body looking for the first order-dependent
// statement. The commuting whitelist: keyed map writes, delete, integer
// counter updates (+=, |=, ^=, &=, ++/--: commutative and associative on
// fixed-width integers), writes to anything declared inside the loop, and
// control flow over those. Everything else — appends, sends, go/defer,
// calls-for-effect, float accumulation, plain overwrites of outer state,
// returns of loop-dependent values — depends on iteration order.
type rangeChecker struct {
	pass *Pass
	rng  *ast.RangeStmt
	why  string
}

func (d *rangeChecker) fail(pos token.Pos, why string) {
	if d.why == "" {
		p := d.pass.Fset.Position(pos)
		d.why = why + " at line " + strconv.Itoa(p.Line)
	}
}

func (d *rangeChecker) stmts(list []ast.Stmt) {
	for _, s := range list {
		d.stmt(s)
	}
}

func (d *rangeChecker) stmt(s ast.Stmt) {
	if d.why != "" {
		return
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		d.assign(s)
	case *ast.IncDecStmt:
		d.lvalueUpdate(s.X, s.Pos())
	case *ast.ExprStmt:
		d.exprStmt(s)
	case *ast.SendStmt:
		d.fail(s.Pos(), "channel send")
	case *ast.GoStmt:
		d.fail(s.Pos(), "go statement")
	case *ast.DeferStmt:
		d.fail(s.Pos(), "defer")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if d.usesLoopVars(r) {
				d.fail(s.Pos(), "returns a loop-dependent value")
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			d.stmt(s.Init)
		}
		d.stmts(s.Body.List)
		if s.Else != nil {
			d.stmt(s.Else)
		}
	case *ast.BlockStmt:
		d.stmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			d.stmt(s.Init)
		}
		if s.Post != nil {
			d.stmt(s.Post)
		}
		d.stmts(s.Body.List)
	case *ast.RangeStmt:
		d.stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			d.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			d.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			d.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		d.fail(s.Pos(), "select")
	case *ast.BranchStmt, *ast.DeclStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		if l, ok := s.(*ast.LabeledStmt); ok {
			d.stmt(l.Stmt)
		}
	}
}

// assign classifies one assignment.
func (d *rangeChecker) assign(s *ast.AssignStmt) {
	// RHS appends are order-dependent whenever the target outlives the loop;
	// the define/declared-inside case is handled by lvalue classification.
	for i, lhs := range s.Lhs {
		if s.Tok == token.DEFINE {
			// A := declaration writes only loop-local names (Go scoping), but
			// still look at the RHS for appends to outer slices via :=
			// shadowing — impossible — so defines are clean.
			continue
		}
		if i < len(s.Rhs) {
			if call, ok := s.Rhs[i].(*ast.CallExpr); ok && d.isBuiltin(call, "append") {
				if !d.declaredInLoop(baseIdent(call.Args[0])) {
					d.fail(s.Pos(), "append to a slice that outlives the loop")
					return
				}
			}
		}
		switch s.Tok {
		case token.ASSIGN:
			d.plainAssign(lhs, s.Pos())
		default: // compound op: commutative only for integers
			d.lvalueUpdate(lhs, s.Pos())
		}
	}
}

// plainAssign handles `=`: last writer wins, so writing anything that
// outlives the loop is order-dependent unless it is a keyed map element.
func (d *rangeChecker) plainAssign(lhs ast.Expr, pos token.Pos) {
	if d.isMapIndex(lhs) {
		return
	}
	if id, ok := lhs.(*ast.Ident); ok && (id.Name == "_" || d.declaredInLoop(id)) {
		return
	}
	if d.declaredInLoop(baseIdent(lhs)) {
		return
	}
	d.fail(pos, "overwrites state that outlives the loop")
}

// lvalueUpdate handles compound ops and ++/--: order-independent only on
// integer types (modular arithmetic commutes; float rounding does not).
func (d *rangeChecker) lvalueUpdate(lhs ast.Expr, pos token.Pos) {
	if d.isMapIndex(lhs) {
		return
	}
	if d.declaredInLoop(baseIdent(lhs)) {
		return
	}
	tv, ok := d.pass.TypesInfo.Types[lhs]
	if ok && tv.Type != nil {
		if b, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsInteger != 0 {
			return
		}
	}
	d.fail(pos, "non-integer accumulation into state that outlives the loop")
}

// exprStmt: a call whose result is discarded runs for its side effects,
// which the loop then performs in map order. delete and clear commute.
func (d *rangeChecker) exprStmt(s *ast.ExprStmt) {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return
	}
	if d.isBuiltin(call, "delete") || d.isBuiltin(call, "clear") || d.isBuiltin(call, "panic") {
		return
	}
	d.fail(s.Pos(), "call for effect ("+types.ExprString(call.Fun)+")")
}

func (d *rangeChecker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := d.pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isMapIndex reports whether e indexes a map (keyed writes commute when the
// written keys are distinct, which loop-keyed writes are).
func (d *rangeChecker) isMapIndex(e ast.Expr) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := d.pass.TypesInfo.Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// declaredInLoop reports whether id's object is declared inside the range
// statement (loop variables included), so writes to it die with the
// iteration.
func (d *rangeChecker) declaredInLoop(id *ast.Ident) bool {
	if id == nil {
		return false
	}
	obj := d.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= d.rng.Pos() && obj.Pos() <= d.rng.End()
}

// usesLoopVars reports whether e references the loop's key or value
// variable.
func (d *rangeChecker) usesLoopVars(e ast.Expr) bool {
	var loopObjs []types.Object
	for _, v := range []ast.Expr{d.rng.Key, d.rng.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := d.pass.TypesInfo.ObjectOf(id); obj != nil {
				loopObjs = append(loopObjs, obj)
			}
		}
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := d.pass.TypesInfo.ObjectOf(id); obj != nil {
				for _, lo := range loopObjs {
					if obj == lo {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// baseIdent peels selectors, indexes and derefs down to the root identifier
// (x in x.f[i].g), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
