package codegen

import (
	"context"
	"sync/atomic"

	"spin/internal/stripe"
	"spin/internal/vtime"
)

// The dispatch executor — the reproduction's answer to the paper's runtime
// code generation. SPIN's generator emitted one straight-line stub per
// event (§3). Go cannot emit machine code at runtime, but it can do the
// next-closest thing at plan-compile time:
//
//   - the guard decision structure is flattened: every step's guard
//     conjunction (And-trees, multiple guards) is lowered into one
//     contiguous array of leaf comparisons (flatPred) shared by the whole
//     plan, evaluated by a branch-predictable switch with no recursion and
//     no per-guard indirect call;
//   - each step is lowered into a record (flatStep) carrying its guard
//     range, its inline body and its fire counter, so the common inline
//     bodies run without touching *Binding;
//   - one executor body, stenciled over (void | result-fold) ×
//     (unguarded | guarded), is selected once at compile time (flatExecs),
//     so a raise runs straight-line code with no per-raise shape
//     switching;
//   - statistics are batched: per-binding fire counts go through one
//     stripe shard index hoisted by the caller (Binding.FireCount), and the
//     event-level fired total is added once per raise to Env.FiredTotal
//     instead of once per firing through Env.OnFire.
//
// execFlat is the only untraced executor: every plan except the unguarded
// direct bypass (execDirect) runs it, metered or not, protected or not,
// with asynchronous, ephemeral, filter and decision-tree steps alike. The
// machinery those need sits off the synchronous path: a metered raise adds
// its charges up in a tab and settles it where code outside the plan can
// observe the clock (DESIGN.md decision 20); out-of-line guards and
// protected handlers run behind the exec_protect.go barriers; slow steps
// call runSlow. An unmetered, unprotected raise of synchronous steps pays
// one predictable branch per step for all of them. The traced twin
// (exec_trace.go) is the one other routine, and the differential fuzzers
// and TestMeteredRaiseMatchesTracedTwin compare the two.

// flatPred ops beyond the inlinable PredOp leaves: an arbitrary predicate
// subtree evaluated through Pred.Eval, and an out-of-line guard function.
const (
	predOpTree PredOp = -1
	predOpCall PredOp = -2
)

// flatPred is one lowered guard leaf. All leaves of a step's guard
// conjunction are contiguous in Plan.flatPreds; evaluation short-circuits
// at the first failing leaf.
type flatPred struct {
	op  PredOp
	arg int32
	// n is the number of guard charges a metered raise owes when control
	// leaves the step at this leaf: for a predicate leaf, when it fails;
	// for an out-of-line call, just before the call. A leaf is not a
	// guard — an And guard lowers to several leaves, a constant-true
	// guard to none — so the count is taken from the guard list at
	// compile time.
	n    int32
	k    uint64
	cell *atomic.Uint64
	tree *Pred  // predOpTree: Or/Not subtree, evaluated via Eval
	g    *Guard // predOpCall: out-of-line guard
}

// stepKind separates the steps the executor runs inline from the ones it
// hands off.
type stepKind uint8

const (
	kindSync stepKind = iota // synchronous handler, called in line
	kindSlow                 // asynchronous, ephemeral or filter: runSlow
	kindTree                 // decision-tree lookup (tree.go)

	// Raise modes, or-ed onto a step's kind so one test sends every
	// step that is not plain synchronous dispatch down the general path.
	modeMetered   stepKind = 1 << 2
	modeProtected stepKind = 1 << 3
)

// flatStep is one pre-lowered dispatch step: guard range, inline body and
// fire counter, with no pointer chase through step or Binding on the
// synchronous inline path.
type flatStep struct {
	// g0 is the step's first guard leaf, embedded so the overwhelmingly
	// common single-guard step never touches the shared pool; its zero
	// value (PredTrue) always passes. p0..p1 index any remaining leaves in
	// Plan.flatPreds.
	g0     flatPred
	p0, p1 int32
	// gn is the number of guard charges a metered raise owes when every
	// leaf passed (guards after the last out-of-line call).
	gn   int32
	kind stepKind
	// body is the inlined handler body, nil when the step calls b.
	body *Body
	b    *Binding
	fire *stripe.Counter
	tree *treeLookup // kindTree only
}

// treeLookup is a lowered decision-tree unit: the discriminated argument
// and each constant's guard-free branch.
type treeLookup struct {
	arg      int
	branches map[uint64][]flatStep
}

// ExecFn is a compiled executor: selected once per plan, called per raise.
// stripeIdx is the caller's hoisted stripe shard index (stripe.Index()),
// reused for every striped counter the raise touches.
type ExecFn func(p *Plan, env *Env, args []any, stripeIdx int) Outcome

// flattenPred lowers a guard predicate into conjunction leaves. Top-level
// And-trees split into their leaves; True leaves are elided (guards are
// FUNCTIONAL, so elision is unobservable); any other composite (Or, Not)
// stays a single Eval-fallback leaf. A constant-false leaf under
// DisablePeephole still lowers — the step simply never fires.
func flattenPred(p *Pred, out []flatPred) []flatPred {
	switch p.Op {
	case PredAnd:
		return flattenPred(p.R, flattenPred(p.L, out))
	case PredTrue:
		return out
	case PredFalse:
		return append(out, flatPred{op: PredFalse})
	case PredGlobalEq, PredGlobalNe:
		if p.Cell == nil {
			// Pred.Eval treats a nil cell as false; preserve that.
			return append(out, flatPred{op: PredFalse})
		}
		return append(out, flatPred{op: p.Op, cell: p.Cell, k: p.K})
	case PredArgEq, PredArgNe, PredArgLt:
		return append(out, flatPred{op: p.Op, arg: int32(p.Arg), k: p.K})
	default:
		return append(out, flatPred{op: predOpTree, tree: p})
	}
}

// lowerStep lowers one compiled step, appending its guard leaves to preds.
// The leaf charge counts follow DESIGN.md decision 20: predicate guards
// are paid as one multiple when the step exits or an out-of-line guard is
// reached; each out-of-line guard pays its own indirect call.
func lowerStep(st *step, preds []flatPred) (flatStep, []flatPred) {
	fs := flatStep{b: st.b, fire: st.b.FireCount}
	if st.inline {
		fs.body = st.b.Inline
	}
	if st.b.Async || st.b.Ephemeral || st.b.Filter {
		fs.kind = kindSlow
	}
	start := len(preds)
	counted := 0 // guards before this index are already charged
	for gi := range st.guards {
		g := &st.guards[gi]
		if g.Pred == nil {
			preds = append(preds, flatPred{op: predOpCall, g: g, n: int32(gi - counted)})
			counted = gi + 1
			continue
		}
		at := len(preds)
		preds = flattenPred(g.Pred, preds)
		for i := at; i < len(preds); i++ {
			preds[i].n = int32(gi + 1 - counted)
		}
	}
	fs.gn = int32(len(st.guards) - counted)
	if len(preds) > start {
		// Hoist the first leaf into the step record and out of the pool,
		// so a plan of single-leaf steps keeps an empty pool.
		fs.g0 = preds[start]
		preds = append(preds[:start], preds[start+1:]...)
	}
	fs.p0, fs.p1 = int32(start), int32(len(preds))
	return fs, preds
}

// guarded reports whether the step has any guard leaf: the first one is
// always hoisted into g0, and no leaf lowers to PredTrue.
func (s *flatStep) guarded() bool { return s.g0.op != PredTrue }

// compileFlat lowers the plan into its flattened form and selects its
// executor. Decision-tree units lower to a kindTree step whose branches
// are flattened in turn.
func (p *Plan) compileFlat() {
	if p.direct != nil {
		p.exec = execDirect
		return
	}
	flat := make([]flatStep, len(p.units))
	var preds []flatPred
	g := 0 // guarded shape: some step has a guard leaf
	for i := range p.units {
		u := &p.units[i]
		if u.single != nil {
			flat[i], preds = lowerStep(u.single, preds)
			if flat[i].guarded() {
				g = 1
			}
			continue
		}
		tl := &treeLookup{arg: u.treeArg, branches: make(map[uint64][]flatStep, len(u.branches))}
		for k, branch := range u.branches {
			fb := make([]flatStep, len(branch))
			for j := range branch {
				fb[j], preds = lowerStep(&branch[j], preds)
			}
			tl.branches[k] = fb
		}
		flat[i] = flatStep{kind: kindTree, tree: tl}
	}
	p.flat = flat
	p.flatPreds = preds

	res := 0
	if p.info.HasResult {
		res = 1
	}
	p.exec = flatExecs[res][g]
}

// Specialized reports whether the plan runs the flattened executor, which
// every plan but the direct bypass does (for tests).
func (p *Plan) Specialized() bool { return p.flat != nil }

// GuardedBypass reports whether the plan is a single guarded step compiled
// straight-line — the guarded resident of the bypass tier: one embedded
// guard conjunction and one body with no further steps. (The unguarded
// resident is Direct.)
func (p *Plan) GuardedBypass() bool {
	return len(p.flat) == 1 && p.flat[0].kind == kindSync && p.flat[0].guarded()
}

// FastExec returns the executor a raise of the plan runs, for callers that
// hoist their own stripe shard index (the dispatcher): the plan's executor,
// or for a traced plan the sampling entry in front of it. Execute is
// FastExec with a fresh index.
func (p *Plan) FastExec() ExecFn {
	if p.prog != nil {
		return execSampled
	}
	return p.exec
}

// execSampled is the entry of a traced plan: it draws the sampling
// decision and runs the traced twin for sampled raises, the plan's
// executor otherwise.
func execSampled(p *Plan, env *Env, args []any, idx int) Outcome {
	if raise, sampled := p.prog.Begin(); sampled {
		return p.executeTraced(env, args, raise)
	}
	return p.exec(p, env, args, idx)
}

// Shape markers. The executor is instantiated over every (result,
// guarded) combination so each shape is a distinct straight-line function
// chosen once at compile time. A marker is a byte array whose length is
// the flag: Go's gcshape stenciling compiles one body per distinct array
// type, and inside it len() of the marker is a constant, so each
// executor's dead branches (the guard walk in unguarded shapes, the
// result fold in void shapes) are eliminated outright. (A method on the
// marker would not do: shaped bodies call type-parameter methods through
// a dictionary at run time.)
type (
	off = [1]byte
	on  = [2]byte
)

type shapeFlag interface{ off | on }

// execFlat is the one executor behind every shape. The type parameters
// pin the shape at instantiation: every entry in flatExecs is its own
// stenciled function where hasResult/useGuards are compile-time constants
// and the branches they gate are folded away.
//
// Statistics protocol: when env.FiredTotal is set (every dispatcher
// raise), per-binding counts go to FireCount through the caller's hoisted
// stripe shard index and the event total is added once at the end;
// otherwise the executor calls env.OnFire per firing, so direct codegen
// users observe per-fire callbacks.
func execFlat[R, G shapeFlag](p *Plan, env *Env, args []any, idx int) Outcome {
	var x run
	cpu := env.CPU
	if cpu != nil {
		x.t = p.openTab(cpu)
	}
	execSteps[R, G](p, env, args, idx, p.flat, &x)
	out := x.out
	if out.Fired == 0 && p.defaultB != nil {
		b := p.defaultB
		x.t.charge(vtime.HandlerIndirect)
		x.t.settle()
		if p.protect != nil {
			out.Result, _ = p.callProtected(cpu, b, p.inlined(b), args)
		} else {
			out.Result = callBinding(b, p.inlined(b), args)
		}
		out.UsedDefault = true
		if env.FiredTotal != nil {
			if b.FireCount != nil {
				b.FireCount.AddAt(idx, 1)
			}
			x.extra++
		} else if env.OnFire != nil {
			env.OnFire(b.Tag)
		}
	}
	if fired := env.FiredTotal; fired != nil {
		if n := out.Fired + x.extra; n > 0 {
			fired.AddAt(idx, int64(n))
		}
	}
	x.t.settle()
	return out
}

// run is the state of one raise that outlives a run of steps: the
// metering tab, the outcome so far, and the firings counted in FiredTotal
// but not in Outcome.Fired (filters and the default handler). The step
// loop works on it in place, which keeps the loop's live values few.
type run struct {
	t          tab
	out        Outcome
	haveResult bool
	extra      int
}

// execSteps runs one run of flattened steps: the plan's top-level steps,
// or a decision-tree branch, which it runs by calling itself.
//
// A synchronous step of an unmetered, unprotected raise takes one branch
// past the guard walk straight to its handler; every other case — a tree
// lookup, a slow step, metering, fault capture — shares the test of
// s.kind|mode against kindSync.
func execSteps[R, G shapeFlag](p *Plan, env *Env, args []any, idx int, flat []flatStep, x *run) {
	var r R
	var g G
	hasResult := len(r) == len(on{})
	useGuards := len(g) == len(on{})

	var mode stepKind
	if env.CPU != nil {
		mode |= modeMetered
	}
	if p.protect != nil {
		mode |= modeProtected
	}
	onFire := env.OnFire
	batched := env.FiredTotal != nil
	preds := p.flatPreds
	out := &x.out
steps:
	for i := range flat {
		s := &flat[i]
		if useGuards {
			// The embedded first leaf (g0) evaluates without touching the
			// shared pool; pooled leaves (p0..p1) follow. One switch in the
			// source serves both, walked leaf-by-leaf. A tree head has no
			// leaves and passes.
			pr := &s.g0
			j := s.p0
			for {
				ok := true
				switch pr.op {
				case PredGlobalEq:
					ok = pr.cell.Load() == pr.k
				case PredGlobalNe:
					ok = pr.cell.Load() != pr.k
				case PredArgEq:
					w, wok := argWord(args, int(pr.arg))
					ok = wok && w == pr.k
				case PredArgNe:
					w, wok := argWord(args, int(pr.arg))
					ok = wok && w != pr.k
				case PredArgLt:
					w, wok := argWord(args, int(pr.arg))
					ok = wok && w < pr.k
				case PredFalse:
					ok = false
				case predOpTree:
					ok = pr.tree.Eval(args)
				case predOpCall:
					if !p.callGuard(&x.t, s, pr, args) {
						continue steps // the call's charges are already paid
					}
				}
				if !ok {
					if mode&modeMetered != 0 {
						x.t.guards(pr.n)
					}
					continue steps
				}
				if j >= s.p1 {
					break
				}
				pr = &preds[j]
				j++
			}
		}
		var res any
		merge := true // the result takes part in the fold
		if s.kind|mode != kindSync {
			if s.kind == kindTree {
				// One inline comparison-equivalent lookup replaces the
				// whole run's guard evaluations (§3.2 future work; see
				// tree.go); the branch's guard-free steps run next.
				x.t.charge(vtime.GuardInline)
				if w, ok := argWord(args, s.tree.arg); ok {
					if branch := s.tree.branches[w]; len(branch) > 0 {
						execSteps[R, G](p, env, args, idx, branch, x)
					}
				}
				continue
			}
			if mode&modeMetered != 0 {
				x.t.guards(s.gn)
				x.t.chargeHandler(s.body != nil, p.info.Arity)
				x.t.settle()
			}
			switch {
			case s.kind == kindSlow:
				if res, merge = p.runSlow(env, s, args); s.b.Filter {
					// Filters transform arguments for downstream handlers;
					// they neither produce results nor count as the event
					// having been handled (§2.3 "Passing arguments").
					if batched {
						if s.fire != nil {
							s.fire.AddAt(idx, 1)
						}
						x.extra++
					} else if onFire != nil {
						onFire(s.b.Tag)
					}
					continue
				}
				goto fired
			case mode&modeProtected != 0:
				res, merge = p.callProtected(env.CPU, s.b, s.body != nil, args)
				goto fired
			}
		}
		if body := s.body; body != nil {
			// The inline-body cases are open-coded (rather than calling
			// Body.Run) so the common Nop/ReturnConst/AddWord bodies run
			// without a call frame.
			switch body.Op {
			case BodyReturnConst:
				res = body.V
			case BodyAddWord:
				if body.Cell != nil {
					body.Cell.Add(body.K)
				}
			case BodyReturnArg:
				if body.Arg >= 0 && body.Arg < len(args) {
					res = args[body.Arg]
				}
			}
		} else if s.b.CtxFn != nil {
			res = s.b.CtxFn(context.Background(), s.b.Closure, args)
		} else {
			res = s.b.Fn(s.b.Closure, args)
		}
	fired:
		out.Fired++
		if batched {
			if s.fire != nil {
				s.fire.AddAt(idx, 1)
			}
		} else if onFire != nil {
			onFire(s.b.Tag)
		}
		if hasResult && merge {
			if p.resultFn != nil {
				if mode&modeMetered != 0 {
					x.t.charge(vtime.ResultMerge)
					x.t.settle()
				}
				out.Result = p.resultFn(out.Result, res, out.Fired-1)
			} else {
				if x.haveResult {
					out.Ambiguous = true
				}
				out.Result = res
				x.haveResult = true
			}
		}
	}
}

// flatExecs is the compile-time selection table:
// [void, result-fold][unguarded, guarded].
var flatExecs = [2][2]ExecFn{
	{execFlat[off, off], execFlat[off, on]},
	{execFlat[on, off], execFlat[on, on]},
}

// callGuard evaluates an out-of-line guard leaf. The guard is code outside
// the plan, so a metered raise first pays the guards owed before it and
// its own indirect call; a protected plan runs it behind the fault
// barrier, where a panic fails the guard.
func (p *Plan) callGuard(t *tab, s *flatStep, pr *flatPred, args []any) bool {
	if t.cpu != nil {
		t.guards(pr.n)
		t.charge(vtime.GuardIndirect)
		t.settle()
	}
	if p.protect != nil {
		return p.guardProtected(pr.g, s.b.Tag, args)
	}
	return pr.g.Fn(pr.g.Closure, args)
}

// runSlow runs an asynchronous, ephemeral or filter step whose guards
// passed and whose invocation is paid for: the steps that need a
// detachable invocation, a supervisor or the fault barrier around a
// filter. It returns the handler's result and whether the result takes
// part in the fold.
func (p *Plan) runSlow(env *Env, s *flatStep, args []any) (res any, merge bool) {
	b := s.b
	inline := s.body != nil
	switch {
	case b.Filter:
		if p.protect != nil {
			_, _ = p.callProtected(env.CPU, b, inline, args)
		} else {
			_ = callBinding(b, inline, args)
		}
		return nil, false
	case b.Async:
		inv := invoker(b, inline, args)
		if p.admitQ != nil && env.SubmitHandler != nil {
			// Admission compiled in: the invocation passes through the
			// bounded queue and may be shed under overload.
			env.SubmitHandler(p.admitQ, b.Tag, p.info.Arity, inv)
		} else if env.SpawnHandler != nil {
			env.SpawnHandler(b.Tag, p.info.Arity, inv)
		} else {
			env.Spawn(p.info.Arity, func() { _ = inv(context.Background()) })
		}
		return nil, false
	}
	return env.RunEphemeral(b.Tag, invoker(b, inline, args))
}

// execDirect is the executor of the single-binding bypass: one direct
// call, with the plan's metering, fault barrier and statistics protocol.
func execDirect(p *Plan, env *Env, args []any, idx int) Outcome {
	b := p.direct
	cpu := env.CPU
	if cpu != nil {
		t := tab{cpu: cpu, model: cpu.Model()}
		t.charge(vtime.CallDirect)
		t.chargeN(vtime.CallDirectArg, p.info.Arity)
		t.settle()
	}
	var res any
	if p.protect != nil {
		res, _ = p.callProtected(cpu, b, p.inlined(b), args)
	} else {
		res = callBinding(b, p.inlined(b), args)
	}
	if fired := env.FiredTotal; fired != nil {
		if b.FireCount != nil {
			b.FireCount.AddAt(idx, 1)
		}
		fired.AddAt(idx, 1)
	} else if env.OnFire != nil {
		env.OnFire(b.Tag)
	}
	return Outcome{Result: res, Fired: 1}
}
