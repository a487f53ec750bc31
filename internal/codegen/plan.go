package codegen

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"spin/internal/admit"
	"spin/internal/journal"
	"spin/internal/stripe"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// GuardFn is the out-of-line guard calling convention: closure (nil when
// none was supplied at installation) plus the raise arguments.
type GuardFn func(closure any, args []any) bool

// HandlerFn is the out-of-line handler calling convention. Void handlers
// return nil.
type HandlerFn func(closure any, args []any) any

// CtxHandlerFn is the cancellation-aware handler calling convention: the
// context is cancelled when a watchdog deadline expires, so a cooperative
// EPHEMERAL or asynchronous handler can stop early instead of running
// abandoned (§2.6 "Runaway handlers"). Synchronous invocations receive
// context.Background().
type CtxHandlerFn func(ctx context.Context, closure any, args []any) any

// FaultHook receives structured fault captures from protected plan
// execution. It is implemented by the dispatcher's fault controller; the
// generator only calls it from plans compiled with Options.Protect.
type FaultHook interface {
	// HandlerPanic reports a recovered panic in a handler body; the
	// handler counts as fired with no result.
	HandlerPanic(tag any, val any, stack []byte)
	// GuardPanic reports a recovered panic in an out-of-line guard; the
	// guard counts as failed.
	GuardPanic(tag any, val any, stack []byte)
	// SyncCost reports the virtual-time cost of one synchronous handler
	// invocation on a metered dispatcher (for overrun budgets).
	SyncCost(tag any, cost vtime.Duration)
}

// ResultFn folds handler results: it is called separately for each result
// produced during a raise, receiving the accumulator (nil initially), the
// new result, and the zero-based index of the result (paper §2.3 "Handling
// results").
type ResultFn func(acc any, result any, index int) any

// Guard pairs an evaluable guard with its installation closure. A non-nil
// Pred marks the guard as inlinable: the generator evaluates it inside the
// dispatch routine. Otherwise Fn is called indirectly.
type Guard struct {
	Fn      GuardFn
	Closure any
	Pred    *Pred
}

// Binding is the code generator's view of one installed handler: its guard
// list (installer guards followed by authorizer-imposed guards), the
// handler itself, and the execution properties that shape the generated
// code.
type Binding struct {
	Guards  []Guard
	Fn      HandlerFn
	Closure any
	// CtxFn is the cancellation-aware implementation, used instead of Fn
	// when non-nil. Synchronous calls pass context.Background(); the
	// ephemeral and async supervisors pass their watchdog context.
	CtxFn CtxHandlerFn
	// Inline, when non-nil, lets the generator inline the handler body.
	Inline *Body
	// Async handlers execute on a separate thread of control via
	// Env.Spawn; their results are not returned to the raiser.
	Async bool
	// Ephemeral handlers run under Env.RunEphemeral, which may terminate
	// them (paper §2.6 "Runaway handlers").
	Ephemeral bool
	// Filter marks a handler that takes parameters by reference and may
	// rewrite them for subsequent handlers and guards.
	Filter bool
	// Tag is an opaque back-pointer for the dispatcher (statistics,
	// termination reporting). The generator never inspects it.
	Tag any
	// FireCount, when non-nil, is the binding's striped fire counter. The
	// executors (flat.go) increment it directly through one hoisted stripe
	// shard index per raise when Env.FiredTotal is set, instead of calling
	// Env.OnFire per firing; the traced twin ignores it and keeps the
	// OnFire contract.
	FireCount *stripe.Counter
	// Name is the handler's qualified procedure name, used only to label
	// trace spans; the generated code never inspects it.
	Name string
}

// fullyInline reports whether the generator can execute the binding without
// any indirect call.
func (b *Binding) fullyInline() bool {
	if b.Inline == nil || b.Async || b.Ephemeral {
		return false
	}
	for _, g := range b.Guards {
		if g.Pred == nil {
			return false
		}
	}
	return true
}

// EventInfo carries the event attributes the generator specializes on.
type EventInfo struct {
	Name      string
	Arity     int
	HasResult bool
}

// Options disable individual generator optimizations, for the ablation
// benchmarks. The zero value enables everything SPIN's generator did,
// and nothing it did not.
type Options struct {
	// DisableInline forces every guard and handler out of line, the
	// "no inline" configuration of Table 1.
	DisableInline bool
	// DisableBypass keeps the dispatch routine in place even for a
	// single unguarded synchronous binding.
	DisableBypass bool
	// DisablePeephole skips plan simplification.
	DisablePeephole bool
	// EnableDecisionTree turns on the guard decision-tree optimization
	// the paper names as future work (§3.2): consecutive bindings whose
	// only guard is an ArgEq predicate on the same argument dispatch
	// through a hash on the argument word instead of a linear guard
	// scan. Off by default, matching the measured system; see tree.go.
	EnableDecisionTree bool
	// Trace, when non-nil, compiles trace recording steps into the plan:
	// the generated routine registers its step layout with the tracer and
	// sampled raises execute a traced twin of the dispatch loop. A nil
	// Trace compiles a plan with no tracing code at all, so a disabled
	// tracer costs nothing on the hot path (the zero-cost-off property
	// TestTracingOffZeroAlloc enforces).
	Trace *trace.Tracer
	// Protect, when non-nil, compiles fault capture into the plan: every
	// handler invocation and out-of-line guard evaluation runs behind a
	// recover barrier that routes panics (and virtual-time overruns) to
	// the hook instead of the raiser. A panicking handler counts as fired
	// with no result; a panicking guard counts as failed. Plans compiled
	// without Protect carry no recovery code at all — the same
	// zero-cost-off contract tracing has (DESIGN.md decision 12).
	Protect FaultHook
	// Admit, when non-nil, compiles the event's admission queue into the
	// plan: asynchronous handler invocations are submitted to the bounded
	// queue (via Env.SubmitHandler) instead of spawned directly, and
	// asynchronous raises of the event pass through the same queue. A nil
	// Admit compiles the unqueued spawn path, so an event without an
	// admission policy pays one nil check per async step and nothing else
	// — the same zero-cost-off contract tracing and fault capture have
	// (DESIGN.md decision 13).
	Admit *admit.Queue
	// Journal, when non-nil, compiles lifecycle journaling into the plan:
	// the raise path draws from the journal's striped sampler after
	// execution (one pointer load and, off-sample, one masked counter
	// increment). A nil Journal compiles a plan with no journal field at
	// all, so a journal-off dispatcher's raise path is byte-identical to
	// the unjournaled build — the same zero-cost-off contract tracing,
	// fault capture, and admission have (DESIGN.md decision 17).
	Journal *journal.Journal
}

// step is one unrolled dispatch step.
type step struct {
	guards []Guard
	b      *Binding
	inline bool // binding executes fully inline
	// idx is the step's index in the live plan, assigned at compile time.
	// Decision-tree branches copy steps out of plan order, so the index is
	// carried on the step itself for trace-span attribution.
	idx int
}

// Plan is an immutable compiled dispatch routine. The dispatcher publishes
// a new plan with a single atomic pointer store on every installation or
// removal, so raises in flight keep executing the old plan — the paper's
// "handler lists are updated atomically with respect to event dispatch by
// using a single memory access".
type Plan struct {
	info      EventInfo
	opts      Options
	steps     []step
	units     []unit
	direct    *Binding // non-nil: single-binding bypass, dispatcher skipped
	resultFn  ResultFn
	defaultB  *Binding
	allInline bool
	hasFilter bool
	// retains is set when some live binding (asynchronous or ephemeral)
	// may hold the raise argument slice past the raise, so callers must
	// not recycle it. Dispatcher fast paths consult RetainsArgs before
	// reusing pooled argument buffers.
	retains bool
	// Bindings is the number of live bindings compiled into the plan,
	// used by the dispatcher to charge the O(n) regeneration cost.
	Bindings int
	// prog is the plan's trace recording handle, non-nil only when the
	// plan was compiled with Options.Trace. Untraced plans pay a single
	// nil check per raise and nothing else.
	prog *trace.Program
	// protect is the fault hook compiled into the plan (Options.Protect);
	// nil plans execute with no recovery barriers at all.
	protect FaultHook
	// admitQ is the admission queue compiled into the plan
	// (Options.Admit); nil plans spawn asynchronous work unqueued.
	admitQ *admit.Queue
	// jrnl is the lifecycle journal compiled into the plan
	// (Options.Journal); nil plans raise with no journal check beyond one
	// nil test.
	jrnl *journal.Journal
	// The lowered plan (flat.go): one flattened record per unit, the shared
	// guard-leaf pool its steps index into, and the executor selected at
	// compile time (execDirect for the direct bypass, which has no flat
	// form).
	flat      []flatStep
	flatPreds []flatPred
	exec      ExecFn
}

// Env supplies the execution hooks the generated routine needs from the
// dispatcher: a CPU meter (nil when unmetered), a spawner for asynchronous
// handlers, an ephemeral supervisor, and a statistics callback.
type Env struct {
	CPU *vtime.CPU
	// Spawn runs fn on a separate thread of control; arity is the number
	// of arguments that must be copied to the new thread (it determines
	// the spawn cost). Required if any binding is Async and SpawnHandler
	// is nil.
	Spawn func(arity int, fn func())
	// SpawnHandler, when non-nil, supersedes Spawn for asynchronous
	// handler invocations: the dispatcher supervises the spawned
	// invocation (panic capture, wall-clock watchdog, cooperative
	// cancellation through the context).
	SpawnHandler func(tag any, arity int, invoke func(context.Context) any)
	// SubmitHandler, when non-nil, supersedes SpawnHandler for plans
	// compiled with an admission queue: the supervised invocation is
	// submitted to the bounded queue (and may be shed) instead of
	// spawned unconditionally.
	SubmitHandler func(q *admit.Queue, tag any, arity int, invoke func(context.Context) any)
	// RunEphemeral runs invoke under termination supervision, returning
	// its result and whether it ran to completion; the context is
	// cancelled if the watchdog abandons the invocation. Required if any
	// binding is Ephemeral.
	RunEphemeral func(tag any, invoke func(context.Context) any) (any, bool)
	// OnFire, if non-nil, is called with the binding tag each time a
	// handler fires (including default handlers).
	OnFire func(tag any)
	// FiredTotal, if non-nil, switches the executors to batched
	// statistics: per-binding counts go directly to Binding.FireCount and
	// the number of handlers that fired (including filter and
	// default-handler firings) is added to FiredTotal once per raise, all
	// through the caller's hoisted stripe shard index. The traced twin
	// ignores it and keeps the per-fire OnFire contract; a raise produces
	// the same counter totals either way.
	FiredTotal *stripe.Counter
}

// Outcome reports what a raise did.
type Outcome struct {
	// Result is the merged result (meaningful only when the event has a
	// result and Fired > 0 or UsedDefault).
	Result any
	// Fired counts handlers that ran, excluding the default handler.
	Fired int
	// Ambiguous is set when multiple handlers produced results but no
	// result handler was installed to merge them; Result then holds the
	// last result, and the dispatcher surfaces an error.
	Ambiguous bool
	// UsedDefault is set when no handler fired and the default handler
	// supplied the result.
	UsedDefault bool
}

// Compile generates the dispatch routine for the given binding list. The
// returned plan is immutable; the dispatcher swaps it in atomically.
func Compile(info EventInfo, bindings []*Binding, resultFn ResultFn, defaultB *Binding, opts Options) *Plan {
	p := &Plan{info: info, opts: opts, resultFn: resultFn, defaultB: defaultB,
		protect: opts.Protect, admitQ: opts.Admit, jrnl: opts.Journal,
		steps: make([]step, 0, len(bindings))}
	for _, b := range bindings {
		st, live := compileBinding(b, opts)
		if !live {
			continue
		}
		st.idx = len(p.steps)
		p.steps = append(p.steps, st)
		p.Bindings++
		if b.Filter {
			p.hasFilter = true
		}
		if b.Async || b.Ephemeral {
			p.retains = true
		}
	}
	p.allInline = !opts.DisableInline && len(p.steps) > 0
	for _, st := range p.steps {
		if !st.inline {
			p.allInline = false
		}
	}
	// Single-binding bypass: one live synchronous unguarded non-filter
	// binding dispatches as a direct procedure call (Figure 1's "an event
	// with only an intrinsic handler is identical to a procedure call").
	if !opts.DisableBypass && len(p.steps) == 1 && defaultB == nil && resultFn == nil {
		st := p.steps[0]
		if len(st.guards) == 0 && !st.b.Async && !st.b.Ephemeral && !st.b.Filter {
			p.direct = st.b
		}
	}
	p.units = buildUnits(p.steps, opts.EnableDecisionTree)
	p.compileFlat()
	if opts.Trace != nil {
		// Register the plan's step layout with the tracer: span records
		// carry only (program, step) indices, and the registry resolves
		// them to names at export time, keeping the recording path
		// allocation free. The registry retains metadata for superseded
		// plans, so spans recorded against a swapped-out plan still
		// resolve.
		meta := trace.EventMeta{Event: info.Name,
			Steps: make([]trace.StepMeta, len(p.steps))}
		for i := range p.steps {
			b := p.steps[i].b
			meta.Steps[i] = trace.StepMeta{Name: b.Name, Mode: bindingMode(b)}
		}
		if defaultB != nil {
			meta.Default = defaultB.Name
		}
		p.prog = opts.Trace.Program(meta)
	}
	return p
}

// bindingMode maps a binding's execution properties to its trace mode.
func bindingMode(b *Binding) trace.Mode {
	switch {
	case b.Filter:
		return trace.ModeFilter
	case b.Async:
		return trace.ModeAsync
	case b.Ephemeral:
		return trace.ModeEphemeral
	}
	return trace.ModeSync
}

// Traced reports whether trace recording is compiled into the plan.
func (p *Plan) Traced() bool { return p.prog != nil }

// Protected reports whether fault capture is compiled into the plan.
func (p *Plan) Protected() bool { return p.protect != nil }

// AdmitQueue returns the admission queue compiled into the plan, or nil
// when asynchronous work spawns unqueued. The dispatcher's async raise path
// consults it on the plan it loaded, so a policy toggle publishes through
// the same atomic swap installs use.
func (p *Plan) AdmitQueue() *admit.Queue { return p.admitQ }

// Journal returns the lifecycle journal compiled into the plan, or nil
// when the dispatcher runs unjournaled. The raise path consults it on the
// plan it loaded, so enabling journaling publishes through the same
// atomic swap installs use.
func (p *Plan) Journal() *journal.Journal { return p.jrnl }

// TreeUnits reports the number of decision-tree units in the plan and the
// total bindings they cover (for tests and disassembly).
func (p *Plan) TreeUnits() (units, covered int) {
	for _, u := range p.units {
		if u.single == nil {
			units++
			covered += u.treeSize
		}
	}
	return units, covered
}

// compileBinding simplifies one binding's guard list. The second result is
// false when peephole proved the binding can never fire.
func compileBinding(b *Binding, opts Options) (step, bool) {
	st := step{b: b, guards: b.Guards}
	if !opts.DisablePeephole {
		// Copy-on-write: a guard list peephole leaves alone (the common
		// single-leaf guard) shares the binding's slice.
		var out []Guard
		edit := func(i int) {
			if out == nil {
				out = append(make([]Guard, 0, len(b.Guards)), b.Guards[:i]...)
			}
		}
		for i, g := range b.Guards {
			if g.Pred != nil {
				s := g.Pred.Simplify()
				switch s.Op {
				case PredTrue:
					edit(i)
					continue // elide constant-true guard
				case PredFalse:
					return step{}, false // dead binding
				}
				if s != g.Pred || g.Fn != nil || g.Closure != nil {
					edit(i)
					g = Guard{Pred: s}
				}
			}
			if out != nil {
				out = append(out, g)
			}
		}
		if out != nil {
			st.guards = out
		}
		st.guards = reorderGuards(st.guards)
	}
	st.inline = !opts.DisableInline && (&Binding{
		Guards: st.guards, Inline: b.Inline,
		Async: b.Async, Ephemeral: b.Ephemeral,
	}).fullyInline()
	return st, true
}

// reorderGuards moves inline predicates ahead of out-of-line guards,
// preserving relative order within each class (a stable partition). §2.3:
// guards are FUNCTIONAL, which "allows the dispatcher to reorder or
// short-circuit guard execution entirely in order to improve performance"
// — a cheap failing predicate now spares the indirect calls behind it.
func reorderGuards(gs []Guard) []Guard {
	if len(gs) < 2 {
		return gs
	}
	out := make([]Guard, 0, len(gs))
	for _, g := range gs {
		if g.Pred != nil {
			out = append(out, g)
		}
	}
	cheap := len(out)
	for _, g := range gs {
		if g.Pred == nil {
			out = append(out, g)
		}
	}
	if cheap == 0 || cheap == len(out) {
		return gs // single class: keep the original slice
	}
	return out
}

// Direct returns the bypass binding, or nil when the event dispatches
// through the generated routine. The dispatcher uses it to skip plan
// execution entirely.
func (p *Plan) Direct() *Binding { return p.direct }

// RetainsArgs reports whether executing the plan may retain the raise
// argument slice beyond the raise itself: an asynchronous handler runs on
// another thread of control after the raiser proceeds, and an abandoned
// EPHEMERAL handler keeps executing past its deadline. Callers that pool
// argument buffers must pass such plans a private copy.
func (p *Plan) RetainsArgs() bool { return p.retains }

// Steps reports the number of live dispatch steps (for tests and
// disassembly).
func (p *Plan) Steps() int { return len(p.steps) }

// FullyInline reports whether the whole plan executes without indirect
// calls.
func (p *Plan) FullyInline() bool { return p.allInline }

// Execute runs the generated dispatch routine. args is the dispatcher's
// private per-raise argument vector: filters mutate it in place, which is
// visible to subsequent steps but never to the raiser.
//
// Tracing compiled in draws a sampling decision per raise and runs the
// traced twin of the routine for sampled raises; untraced plans pay only
// a nil check for it (FastExec).
func (p *Plan) Execute(env *Env, args []any) Outcome {
	return p.FastExec()(p, env, args, stripe.Index())
}

// tab is a metered raise's running virtual-time total: charges made
// between two clock observations, not yet paid to the meter. A metered
// raise pays it with one meter update immediately before any code outside
// the plan can run or read the clock: a handler, filter, out-of-line
// guard, result handler, spawn or submit, ephemeral supervision, the
// default handler, OnFire, and the return to the raiser. Every clock
// reading, per-account total and fault-hook cost is the same as if each
// operation were charged as it ran (DESIGN.md decision 20); the traced
// twin still charges per operation. With a nil CPU it stays zero and
// every method is a nil check.
type tab struct {
	cpu   *vtime.CPU
	model *vtime.Model
	owed  vtime.Duration
	// guard is the cost of one predicate guard in this plan's
	// configuration, clamped at zero like every other charge.
	guard vtime.Duration
}

// openTab starts a metered raise of a flattened plan: the dispatch-entry
// charges, and the per-guard cost the guard walk multiplies.
func (p *Plan) openTab(cpu *vtime.CPU) tab {
	t := tab{cpu: cpu, model: cpu.Model()}
	if p.allInline {
		t.charge(vtime.InlineEntry)
		t.chargeN(vtime.ArgCopy, p.info.Arity)
	} else {
		t.charge(vtime.DispatchEntry)
		t.chargeN(vtime.DispatchEntryArg, p.info.Arity)
	}
	if p.hasFilter {
		// Snapshot cost for preserving the raiser's view of arguments
		// ahead of the first filter (§2.4 Typechecking).
		t.chargeN(vtime.ArgCopy, p.info.Arity)
	}
	// With inlining disabled the generator emitted an out-of-line call to
	// each predicate: same evaluation, indirect-call price.
	k := vtime.GuardInline
	if p.opts.DisableInline {
		k = vtime.GuardIndirect
	}
	t.guard = max(t.model.Cost(k), 0)
	return t
}

// charge adds the cost of one operation of kind k.
func (t *tab) charge(k vtime.Kind) { t.chargeN(k, 1) }

// chargeN adds the cost of n operations of kind k. Like CPU.ChargeN it
// skips non-positive totals, so paying the sum moves the clock exactly as
// charging each operation would have.
func (t *tab) chargeN(k vtime.Kind, n int) {
	if t.cpu == nil || n <= 0 {
		return
	}
	if d := t.model.Cost(k) * vtime.Duration(n); d > 0 {
		t.owed += d
	}
}

// guards adds the cost of n predicate guards. Predicate guards are pure
// comparisons that cannot observe the clock, so the guard walk counts them
// at compile time and pays them as one multiple when the step exits or an
// out-of-line guard is about to run. Only metered raises call it.
func (t *tab) guards(n int32) { t.owed += t.guard * vtime.Duration(n) }

// chargeHandler adds one handler invocation: the call and the
// per-argument binding cost.
func (t *tab) chargeHandler(inline bool, arity int) {
	call, perArg := handlerCost(inline)
	t.charge(call)
	t.chargeN(perArg, arity)
}

// settle pays the running total with one meter update. It runs before
// any code outside the plan can observe the clock.
func (t *tab) settle() {
	if t.owed > 0 {
		t.cpu.Spend(t.owed)
		t.owed = 0
	}
}

// handlerCost names the handler-invocation charges for one step: the call
// and the per-argument binding cost.
func handlerCost(inline bool) (call, perArg vtime.Kind) {
	if inline {
		return vtime.HandlerInline, vtime.BindingInlineArg
	}
	return vtime.HandlerIndirect, vtime.BindingIndirectArg
}

// inlined reports whether a non-step binding (the direct bypass or the
// default handler) runs its inline body.
func (p *Plan) inlined(b *Binding) bool { return b.Inline != nil && !p.opts.DisableInline }

// callBinding invokes b synchronously — the direct procedure call the
// unrolled routine makes, with no intermediate closure: the inline body
// when the generator inlined it, else CtxFn (with a background context)
// in preference to Fn.
func callBinding(b *Binding, inline bool, args []any) any {
	if inline {
		return b.Inline.Run(args)
	}
	if b.CtxFn != nil {
		return b.CtxFn(context.Background(), b.Closure, args)
	}
	return b.Fn(b.Closure, args)
}

// invoker returns the handler invocation closure for a binding, used by
// the asynchronous and ephemeral paths whose invocations outlive the
// raise. The context parameter carries watchdog cancellation to
// cooperative (CtxFn) handlers.
func invoker(b *Binding, inline bool, args []any) func(context.Context) any {
	if inline {
		return func(context.Context) any { return b.Inline.Run(args) }
	}
	if b.CtxFn != nil {
		return func(ctx context.Context) any { return b.CtxFn(ctx, b.Closure, args) }
	}
	return func(context.Context) any { return b.Fn(b.Closure, args) }
}

// Disassemble renders the plan as pseudo-code, the analog of dumping the
// generated stub. Used by tests and the spinbench -disasm flag.
func (p *Plan) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s/%d", p.info.Name, p.info.Arity)
	if p.info.HasResult {
		sb.WriteString(" -> result")
	}
	sb.WriteByte('\n')
	if p.direct != nil {
		sb.WriteString("  direct call (dispatcher bypassed)\n")
		return sb.String()
	}
	if p.GuardedBypass() {
		sb.WriteString("  specialized: guarded bypass (single straight-line step)\n")
	} else {
		leaves := len(p.flatPreds)
		for i := range p.flat {
			if p.flat[i].guarded() {
				leaves++
			}
		}
		fmt.Fprintf(&sb, "  specialized: flattened executor (%d units, %d guard leaves)\n",
			len(p.flat), leaves)
	}
	writeStep := func(indent string, i int, st *step) {
		fmt.Fprintf(&sb, "%sstep %d:", indent, i)
		if st.inline {
			sb.WriteString(" [inline]")
		}
		for _, g := range st.guards {
			if g.Pred != nil {
				fmt.Fprintf(&sb, " if %s", g.Pred)
			} else {
				sb.WriteString(" if <call guard>")
			}
		}
		fmt.Fprintf(&sb, " do %s", st.b.Inline)
		if st.b.Async {
			sb.WriteString(" async")
		}
		if st.b.Ephemeral {
			sb.WriteString(" ephemeral")
		}
		if st.b.Filter {
			sb.WriteString(" filter")
		}
		sb.WriteByte('\n')
	}
	n := 0
	for i := range p.units {
		u := &p.units[i]
		if u.single != nil {
			writeStep("  ", n, u.single)
			n++
			continue
		}
		fmt.Fprintf(&sb, "  switch arg%d { // decision tree over %d bindings\n",
			u.treeArg, u.treeSize)
		keys := make([]uint64, 0, len(u.branches))
		for k := range u.branches {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "  case %d:\n", k)
			branch := u.branches[k]
			for j := range branch {
				writeStep("    ", n, &branch[j])
				n++
			}
		}
		sb.WriteString("  }\n")
	}
	if p.defaultB != nil {
		sb.WriteString("  default handler installed\n")
	}
	if p.resultFn != nil {
		sb.WriteString("  result handler installed\n")
	}
	return sb.String()
}
