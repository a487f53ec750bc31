package codegen

import (
	"context"

	"spin/internal/trace"
	"spin/internal/vtime"
)

// executeTraced is the traced twin of Plan.Execute: the routine the
// generator emits when Options.Trace is set, with a span-recording step
// interleaved after every guard evaluation, handler invocation and result
// merge. It exists as a separate routine — rather than branches inside
// Execute — so the untraced plan carries no tracing instructions at all;
// recompiling with tracing on swaps this routine in through the same
// atomic plan publication installs use.
//
// Span timing uses virtual time when the raise is metered (costs are then
// the same numbers the §3 tables aggregate); on an unmetered dispatcher
// span starts degrade to a synthetic ordering stamp and costs are zero.
func (p *Plan) executeTraced(env *Env, args []any, raise uint64) Outcome {
	cpu := env.CPU
	prog := p.prog
	metered := prog.Metered(cpu)
	stamp := func() int64 { return prog.Stamp(cpu) }
	// cost measures the virtual time a span consumed; unmetered spans
	// record zero cost rather than meaningless tick deltas.
	cost := func(start int64) int64 {
		if metered {
			return int64(cpu.Now()) - start
		}
		return 0
	}

	begin := stamp()
	arg0, _ := argWord(args, 0)
	prog.RaiseBegin(raise, begin, arg0)

	if p.direct != nil {
		s := stamp()
		cpu.Charge(vtime.CallDirect)
		cpu.ChargeN(vtime.CallDirectArg, p.info.Arity)
		b := p.direct
		var res any
		completed := true
		if p.protect != nil {
			res, completed = p.callProtected(cpu, b, p.inlined(b), args)
		} else {
			res = callBinding(b, p.inlined(b), args)
		}
		if env.OnFire != nil {
			env.OnFire(b.Tag)
		}
		prog.Handler(raise, 0, trace.ModeDirect, completed, s, cost(s))
		prog.RaiseEnd(raise, stamp(), cost(begin), 1, false, false)
		return Outcome{Result: res, Fired: 1}
	}

	if p.allInline {
		cpu.Charge(vtime.InlineEntry)
		cpu.ChargeN(vtime.ArgCopy, p.info.Arity)
	} else {
		cpu.Charge(vtime.DispatchEntry)
		cpu.ChargeN(vtime.DispatchEntryArg, p.info.Arity)
	}
	if p.hasFilter {
		cpu.ChargeN(vtime.ArgCopy, p.info.Arity)
	}

	var out Outcome
	var haveResult bool
	execStep := func(st *step) {
		b := st.b
		if b.Filter {
			s := stamp()
			p.chargeHandler(cpu, st)
			completed := true
			if p.protect != nil {
				_, completed = p.callProtected(cpu, b, st.inline, args)
			} else {
				_ = callBinding(b, st.inline, args)
			}
			prog.Handler(raise, st.idx, trace.ModeFilter, completed, s, cost(s))
			if env.OnFire != nil {
				env.OnFire(b.Tag)
			}
			return
		}
		if b.Async {
			// The span covers the spawn the raiser pays for; the handler
			// body runs on its own thread of control afterwards.
			s := stamp()
			p.chargeHandler(cpu, st)
			inv := invoker(b, st.inline, args)
			if p.admitQ != nil && env.SubmitHandler != nil {
				env.SubmitHandler(p.admitQ, b.Tag, p.info.Arity, inv)
			} else if env.SpawnHandler != nil {
				env.SpawnHandler(b.Tag, p.info.Arity, inv)
			} else {
				env.Spawn(p.info.Arity, func() { _ = inv(context.Background()) })
			}
			prog.Handler(raise, st.idx, trace.ModeAsync, true, s, cost(s))
			out.Fired++
			if env.OnFire != nil {
				env.OnFire(b.Tag)
			}
			return
		}
		var res any
		completed := true
		s := stamp()
		if b.Ephemeral {
			p.chargeHandler(cpu, st)
			res, completed = env.RunEphemeral(b.Tag, invoker(b, st.inline, args))
			prog.Handler(raise, st.idx, trace.ModeEphemeral, completed, s, cost(s))
		} else {
			p.chargeHandler(cpu, st)
			if p.protect != nil {
				res, completed = p.callProtected(cpu, b, st.inline, args)
			} else {
				res = callBinding(b, st.inline, args)
			}
			prog.Handler(raise, st.idx, trace.ModeSync, completed, s, cost(s))
		}
		out.Fired++
		if env.OnFire != nil {
			env.OnFire(b.Tag)
		}
		if !p.info.HasResult || !completed {
			return
		}
		if p.resultFn != nil {
			s := stamp()
			cpu.Charge(vtime.ResultMerge)
			out.Result = p.resultFn(out.Result, res, out.Fired-1)
			prog.Merge(raise, out.Fired-1, s, cost(s))
		} else {
			if haveResult {
				out.Ambiguous = true
			}
			out.Result = res
			haveResult = true
		}
	}

	for i := range p.units {
		u := &p.units[i]
		if u.single != nil {
			if !p.traceGuards(cpu, u.single, args, raise, metered) {
				continue
			}
			execStep(u.single)
			continue
		}
		// Decision tree: the single hashed lookup stands in for the whole
		// run's guard evaluations, so it records as one guard span (step
		// -1) whose outcome is whether any branch matched.
		s := stamp()
		cpu.Charge(vtime.GuardInline)
		w, ok := argWord(args, u.treeArg)
		var branch []step
		if ok {
			branch = u.branches[w]
		}
		prog.Guard(raise, -1, 0, true, len(branch) > 0, s, cost(s))
		for j := range branch {
			execStep(&branch[j])
		}
	}

	if out.Fired == 0 && p.defaultB != nil {
		b := p.defaultB
		s := stamp()
		cpu.Charge(vtime.HandlerIndirect)
		var res any
		completed := true
		if p.protect != nil {
			res, completed = p.callProtected(cpu, b, p.inlined(b), args)
		} else {
			res = callBinding(b, p.inlined(b), args)
		}
		prog.Handler(raise, -1, trace.ModeDefault, completed, s, cost(s))
		if env.OnFire != nil {
			env.OnFire(b.Tag)
		}
		out.Result = res
		out.UsedDefault = true
	}
	prog.RaiseEnd(raise, stamp(), cost(begin), out.Fired, out.Ambiguous, out.UsedDefault)
	return out
}

// traceGuards evaluates one step's guard list with a span per
// evaluation: guard index, inline-versus-indirect, and outcome. Evaluation
// stops at the first failing guard, whose failure span closes the step.
func (p *Plan) traceGuards(cpu *vtime.CPU, st *step, args []any, raise uint64, metered bool) bool {
	prog := p.prog
	for i := range st.guards {
		g := &st.guards[i]
		s := prog.Stamp(cpu)
		inline := g.Pred != nil && !p.opts.DisableInline
		var pass bool
		if inline {
			cpu.Charge(vtime.GuardInline)
			pass = g.Pred.Eval(args)
		} else {
			cpu.Charge(vtime.GuardIndirect)
			if g.Pred != nil {
				pass = g.Pred.Eval(args)
			} else if p.protect != nil {
				pass = p.guardProtected(g, st.b.Tag, args)
			} else {
				pass = g.Fn(g.Closure, args)
			}
		}
		var c int64
		if metered {
			c = int64(cpu.Now()) - s
		}
		prog.Guard(raise, st.idx, i, inline, pass, s, c)
		if !pass {
			return false
		}
	}
	return true
}

// chargeHandler charges the handler-invocation cost for one step straight
// to the meter, which the traced twin stamps around it.
func (p *Plan) chargeHandler(cpu *vtime.CPU, st *step) {
	call, perArg := handlerCost(st.inline)
	cpu.Charge(call)
	cpu.ChargeN(perArg, p.info.Arity)
}
