package codegen

import (
	"context"
	"sync/atomic"
)

// Batched executor entry points — the vectorized ingress tier over the
// ahead-of-time specialized shapes (flat.go). A single raise already runs
// straight-line code, but a producer delivering N frames (a packet train,
// an accept burst) still pays the per-raise fixed costs N times: the plan
// load, the stripe shard hash, the trace sampling decision, the
// fired-total flush. The batch executors move the frame loop INSIDE the
// stenciled body, so those costs are paid once per batch:
//
//   - one executor invocation serves the whole batch; the guard walk and
//     lowered bodies run per frame with the loop around them, not around
//     the call;
//   - the caller's hoisted stripe shard index serves every striped counter
//     every frame touches;
//   - the event-level fired total accumulates in a register across the
//     batch and is flushed with one striped add at the end;
//   - per-binding fire counts keep one striped add per firing (identical
//     totals to the loop-of-raises protocol).
//
// Loop equivalence under churn: a loop of single raises loads the plan
// fresh per raise, so an uninstall (or quarantine, or trace toggle)
// between frames is visible to the next frame. The batch executors
// preserve exactly that: before every frame except the first they compare
// the live plan pointer against the plan they are running and return early
// when it moved, reporting how many frames they processed; the dispatcher
// reloads and continues the remainder on the new plan. One atomic load and
// compare per frame is all the staleness check costs — the amortized
// savings (plan load is a load+branch here versus a load, shard hash,
// sampling draw, and flush per raise there) remain.

// ArgFrame is one raise's argument vector within a batch.
type ArgFrame []any

// BatchOutcome folds per-frame Outcomes over one executor call.
type BatchOutcome struct {
	// Fired counts handler invocations across all frames, excluding
	// default-handler firings.
	Fired int64
	// Defaulted counts frames handled by the default handler.
	Defaulted int
	// NoHandler counts frames on which no handler fired and no default was
	// installed (the frames a loop of raises would report ErrNoHandler).
	NoHandler int
	// Ambiguous counts frames that produced multiple unmerged results.
	Ambiguous int
	// Result is the last dispatched frame's merged result.
	Result any
}

// Add folds one frame's outcome into the batch outcome.
func (b *BatchOutcome) Add(o Outcome) {
	b.Fired += int64(o.Fired)
	switch {
	case o.UsedDefault:
		b.Defaulted++
	case o.Fired == 0:
		b.NoHandler++
	}
	if o.Ambiguous {
		b.Ambiguous++
	}
	b.Result = o.Result
}

// BatchExecFn is a compiled batch executor: selected once per plan, called
// once per batch. live, when non-nil, is the event's published-plan cell;
// the executor stops before the first frame that would run on a stale plan
// and reports how many frames it processed, so a churning batch remains
// observably identical to a loop of single raises. stripeIdx is the
// caller's hoisted stripe shard index, shared by every striped counter the
// batch touches.
type BatchExecFn func(p *Plan, env *Env, frames []ArgFrame, stripeIdx int, live *atomic.Pointer[Plan]) (BatchOutcome, int)

// ExecuteBatch dispatches a batch of frames against this plan, drawing the
// per-raise fixed costs once: one trace sampling decision, one specialized
// executor entry (or one interpreter loop), one fired-total flush. Returns
// the folded outcome and the number of frames processed — fewer than
// len(frames) only when live reports the plan was superseded mid-batch,
// in which case the caller reloads and continues. Always processes at
// least one frame of a non-empty batch.
//
// Metered plans (env.CPU != nil) take the per-frame interpreter below, so
// every clock reading matches a loop of single raises.
func (p *Plan) ExecuteBatch(env *Env, frames []ArgFrame, stripeIdx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	var out BatchOutcome
	if len(frames) == 0 {
		return out, 0
	}
	if p.prog != nil {
		// Tracing compiled in: one sampling decision covers the batch. An
		// unsampled draw runs the whole batch untraced — the amortization
		// this tier exists for; at Sample<2 (record everything) the traced
		// path below re-draws per frame, so every frame still records.
		if raise, sampled := p.prog.Begin(); sampled {
			return p.executeBatchTraced(env, frames, raise, live)
		}
	}
	if env.CPU == nil {
		if p.direct != nil && p.protect == nil {
			return p.executeDirectBatch(env, frames, stripeIdx, live)
		}
		if p.flatBatchExec != nil {
			return p.flatBatchExec(p, env, frames, stripeIdx, live)
		}
	}
	for i := range frames {
		if i > 0 && live != nil && live.Load() != p {
			return out, i
		}
		out.Add(p.execute(env, frames[i]))
	}
	return out, len(frames)
}

// executeBatchTraced runs a sampled batch: the first frame uses the raise
// id the batch's sampling draw produced; every subsequent frame draws its
// own decision (and id), so a tracer recording every raise sees one span
// group per frame, exactly as a loop of single raises would produce.
func (p *Plan) executeBatchTraced(env *Env, frames []ArgFrame, raise uint64, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	var out BatchOutcome
	for i := range frames {
		if i > 0 {
			if live != nil && live.Load() != p {
				return out, i
			}
			r, sampled := p.prog.Begin()
			if !sampled {
				out.Add(p.execute(env, frames[i]))
				continue
			}
			raise = r
		}
		out.Add(p.executeTraced(env, frames[i], raise))
	}
	return out, len(frames)
}

// executeDirectBatch is the batch tier of the single-binding bypass: the
// frame loop wrapped directly around the handler call. Where the loop form
// pays a per-fire OnFire callback (two striped adds, each hashing its own
// shard), the batch uses the specialized executors' amortized protocol —
// per-frame adds through the caller's hoisted stripe index and one
// event-total flush at the end. The counter totals are identical.
func (p *Plan) executeDirectBatch(env *Env, frames []ArgFrame, idx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	b := p.direct
	onFire := env.OnFire
	fired := env.FiredTotal
	batched := fired != nil
	var out BatchOutcome
	done := len(frames)
	for i := range frames {
		if i > 0 && live != nil && live.Load() != p {
			done = i
			break
		}
		out.Result = p.runBinding(b, frames[i])
		if batched {
			if b.FireCount != nil {
				b.FireCount.AddAt(idx, 1)
			}
		} else if onFire != nil {
			onFire(b.Tag)
		}
	}
	out.Fired = int64(done)
	if batched && done > 0 {
		fired.AddAt(idx, int64(done))
	}
	return out, done
}

// FastBatchExec returns the plan's specialized batch executor when a batch
// can run without per-batch branching beyond the executor itself — the
// batch analog of FastExec. Returns nil when the caller must use
// ExecuteBatch (traced or interpreter-only plans).
func (p *Plan) FastBatchExec() BatchExecFn {
	if p.prog != nil {
		return nil
	}
	return p.flatBatchExec
}

// execFlatBatch is the one batch executor body behind every specialized
// shape: execFlat's guard walk and lowered bodies with the frame loop
// inside the stenciled instantiation. See execFlat for the shape-marker
// mechanics; the batch variants differ only in the loop placement and the
// statistics protocol (the event-level fired total accumulates across the
// batch and flushes once, through the caller's hoisted stripe index).
func execFlatBatch[A aritySpec, R resultSpec, G guardSpec](p *Plan, env *Env, frames []ArgFrame, idx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	var aSpec A
	var rSpec R
	var gSpec G
	_ = aSpec.arity()
	hasResult := rSpec.hasResult()
	useGuards := gSpec.guarded()

	onFire := env.OnFire
	fired := env.FiredTotal
	batched := fired != nil
	preds := p.flatPreds
	flat := p.flat
	var bout BatchOutcome
	var total int64 // event-level fired count, flushed once per batch
	done := len(frames)
frameLoop:
	for fi := range frames {
		if fi > 0 && live != nil && live.Load() != p {
			done = fi
			break frameLoop
		}
		args := []any(frames[fi])
		var out Outcome
		var haveResult bool
	steps:
		for i := range flat {
			s := &flat[i]
			if useGuards {
				pr := &s.g0
				j := s.p0
				for {
					switch pr.op {
					case PredGlobalEq:
						if pr.cell.Load() != pr.k {
							continue steps
						}
					case PredGlobalNe:
						if pr.cell.Load() == pr.k {
							continue steps
						}
					case PredArgEq:
						if w, ok := argWord(args, pr.arg); !ok || w != pr.k {
							continue steps
						}
					case PredArgNe:
						if w, ok := argWord(args, pr.arg); !ok || w == pr.k {
							continue steps
						}
					case PredArgLt:
						if w, ok := argWord(args, pr.arg); !ok || w >= pr.k {
							continue steps
						}
					case PredFalse:
						continue steps
					case predOpTree:
						if !pr.tree.Eval(args) {
							continue steps
						}
					case predOpCall:
						if !pr.fn(pr.clo, args) {
							continue steps
						}
					}
					if j >= s.p1 {
						break
					}
					pr = &preds[j]
					j++
				}
			}
			var res any
			if s.inline {
				switch s.bop {
				case BodyReturnConst:
					res = s.bv
				case BodyAddWord:
					if s.bcell != nil {
						s.bcell.Add(s.bk)
					}
				case BodyReturnArg:
					if s.barg >= 0 && s.barg < len(args) {
						res = args[s.barg]
					}
				}
			} else if s.ctxFn != nil {
				res = s.ctxFn(context.Background(), s.clo, args)
			} else {
				res = s.fn(s.clo, args)
			}
			out.Fired++
			if batched {
				if s.fire != nil {
					s.fire.AddAt(idx, 1)
				}
			} else if onFire != nil {
				onFire(s.tag)
			}
			if hasResult {
				if p.resultFn != nil {
					out.Result = p.resultFn(out.Result, res, out.Fired-1)
				} else {
					if haveResult {
						out.Ambiguous = true
					}
					out.Result = res
					haveResult = true
				}
			}
		}
		if out.Fired == 0 && p.flatDefault != nil {
			d := p.flatDefault
			out.Result = runFlatBody(d, args)
			out.UsedDefault = true
			if batched {
				if d.fire != nil {
					d.fire.AddAt(idx, 1)
				}
			} else if onFire != nil {
				onFire(d.tag)
			}
		}
		if batched {
			total += int64(out.Fired)
			if out.UsedDefault {
				total++
			}
		}
		bout.Add(out)
	}
	if batched && total > 0 {
		fired.AddAt(idx, total)
	}
	return bout, done
}

// flatBatchExecs is the batch selection table, mirroring flatExecs:
// [arity 0..5, any][void, result-fold][unguarded, guarded].
var flatBatchExecs = [7][2][2]BatchExecFn{
	{
		{execFlatBatch[arity0, resultVoid, unguarded], execFlatBatch[arity0, resultVoid, guarded]},
		{execFlatBatch[arity0, resultFold, unguarded], execFlatBatch[arity0, resultFold, guarded]},
	},
	{
		{execFlatBatch[arity1, resultVoid, unguarded], execFlatBatch[arity1, resultVoid, guarded]},
		{execFlatBatch[arity1, resultFold, unguarded], execFlatBatch[arity1, resultFold, guarded]},
	},
	{
		{execFlatBatch[arity2, resultVoid, unguarded], execFlatBatch[arity2, resultVoid, guarded]},
		{execFlatBatch[arity2, resultFold, unguarded], execFlatBatch[arity2, resultFold, guarded]},
	},
	{
		{execFlatBatch[arity3, resultVoid, unguarded], execFlatBatch[arity3, resultVoid, guarded]},
		{execFlatBatch[arity3, resultFold, unguarded], execFlatBatch[arity3, resultFold, guarded]},
	},
	{
		{execFlatBatch[arity4, resultVoid, unguarded], execFlatBatch[arity4, resultVoid, guarded]},
		{execFlatBatch[arity4, resultFold, unguarded], execFlatBatch[arity4, resultFold, guarded]},
	},
	{
		{execFlatBatch[arity5, resultVoid, unguarded], execFlatBatch[arity5, resultVoid, guarded]},
		{execFlatBatch[arity5, resultFold, unguarded], execFlatBatch[arity5, resultFold, guarded]},
	},
	{
		{execFlatBatch[arityAny, resultVoid, unguarded], execFlatBatch[arityAny, resultVoid, guarded]},
		{execFlatBatch[arityAny, resultFold, unguarded], execFlatBatch[arityAny, resultFold, guarded]},
	},
}
