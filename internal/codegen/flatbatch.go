package codegen

import "sync/atomic"

// Batched executor entry point — the vectorized ingress tier. A producer
// delivering N frames (a packet train, an accept burst) would otherwise
// pay the per-raise fixed costs N times: the plan load, the stripe shard
// hash, the trace sampling decision. ExecuteBatch pays them once per batch
// and runs the plan's one executor (flat.go) per frame; the single-binding
// bypass has a batch loop of its own (executeDirectBatch) wrapped straight
// around the handler call.
//
// Loop equivalence under churn: a loop of single raises loads the plan
// fresh per raise, so an uninstall (or quarantine, or trace toggle)
// between frames is visible to the next frame. The batch loop preserves
// exactly that: before every frame except the first it compares the live
// plan pointer against the plan it is running and returns early when it
// moved, reporting how many frames it processed; the dispatcher reloads
// and continues the remainder on the new plan. One atomic load and compare
// per frame is all the staleness check costs.

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

// ExecuteBatch dispatches a batch of frames against this plan, drawing the
// per-raise fixed costs once: one trace sampling decision and one stripe
// shard index (stripeIdx) for the whole batch. Returns the folded outcome
// and the number of frames processed — fewer than len(frames) only when
// live reports the plan was superseded mid-batch, in which case the caller
// reloads and continues. Always processes at least one frame of a
// non-empty batch. A metered batch charges each frame exactly as a single
// raise would.
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
			return p.executeBatchTraced(env, frames, stripeIdx, raise, live)
		}
	}
	if p.direct != nil && p.protect == nil && env.CPU == nil {
		return p.executeDirectBatch(env, frames, stripeIdx, live)
	}
	for i := range frames {
		if i > 0 && live != nil && live.Load() != p {
			return out, i
		}
		out.Add(p.exec(p, env, frames[i], stripeIdx))
	}
	return out, len(frames)
}

// executeBatchTraced runs a sampled batch: the first frame uses the raise
// id the batch's sampling draw produced; every subsequent frame draws its
// own decision (and id), so a tracer recording every raise sees one span
// group per frame, exactly as a loop of single raises would produce.
func (p *Plan) executeBatchTraced(env *Env, frames []ArgFrame, idx int, raise uint64, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	var out BatchOutcome
	for i := range frames {
		if i > 0 {
			if live != nil && live.Load() != p {
				return out, i
			}
			r, sampled := p.prog.Begin()
			if !sampled {
				out.Add(p.exec(p, env, frames[i], idx))
				continue
			}
			raise = r
		}
		out.Add(p.executeTraced(env, frames[i], raise))
	}
	return out, len(frames)
}

// executeDirectBatch is the batch tier of the single-binding bypass: the
// frame loop wrapped directly around the handler call, with per-frame fire
// counts through the caller's hoisted stripe index and one event-total
// flush at the end instead of one per frame. The counter totals are those
// of a loop of single raises.
func (p *Plan) executeDirectBatch(env *Env, frames []ArgFrame, idx int, live *atomic.Pointer[Plan]) (BatchOutcome, int) {
	b := p.direct
	inline := p.inlined(b)
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
		out.Result = callBinding(b, inline, frames[i])
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
