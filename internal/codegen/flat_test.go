package codegen

import (
	"sync/atomic"
	"testing"

	"spin/internal/stripe"
	"spin/internal/trace"
	"spin/internal/vtime"
)

// nopFaultHook satisfies FaultHook for eligibility tests.
type nopFaultHook struct{}

func (nopFaultHook) HandlerPanic(any, any, []byte) {}
func (nopFaultHook) GuardPanic(any, any, []byte)   {}
func (nopFaultHook) SyncCost(any, vtime.Duration)  {}

// guardedBindings builds n bindings each guarded by an always-true global
// comparison, the canonical guarded shape.
func guardedBindings(n int, count *int) []*Binding {
	cell := new(atomic.Uint64)
	bs := make([]*Binding, n)
	for i := range bs {
		bs[i] = &Binding{
			Guards: []Guard{{Pred: GlobalEq(cell, 0)}},
			Fn:     countingHandler(count, nil),
		}
	}
	return bs
}

func TestSpecializeEligibility(t *testing.T) {
	n := 0
	mkPlan := func(mut func(*Binding), opts Options) *Plan {
		bs := guardedBindings(2, &n)
		if mut != nil {
			mut(bs[0])
		}
		return Compile(info(1, false), bs, nil, nil, opts)
	}

	// Every plan but the direct bypass runs the one flattened executor:
	// slow steps, fault protection and decision trees included.
	for name, p := range map[string]*Plan{
		"guarded":   mkPlan(nil, Options{}),
		"async":     mkPlan(func(b *Binding) { b.Async = true }, Options{}),
		"ephemeral": mkPlan(func(b *Binding) { b.Ephemeral = true }, Options{}),
		"filter":    mkPlan(func(b *Binding) { b.Filter = true }, Options{}),
		"protect":   mkPlan(nil, Options{Protect: nopFaultHook{}}),
	} {
		if !p.Specialized() {
			t.Errorf("%s plan must run the flattened executor", name)
		}
	}

	// An unguarded single binding compiles to the direct bypass, not a
	// flat executor; a guarded single binding compiles to the guarded
	// bypass (single straight-line flat step).
	single := &Binding{Fn: countingHandler(&n, nil)}
	p := Compile(info(0, false), []*Binding{single}, nil, nil, Options{})
	if p.Direct() == nil || p.Specialized() {
		t.Error("unguarded single binding must use the direct bypass")
	}
	gb := Compile(info(1, false),
		guardedBindings(1, &n), nil, nil, Options{})
	if gb.Direct() != nil || !gb.GuardedBypass() {
		t.Errorf("guarded single binding must use the guarded bypass (direct=%v specialized=%v)",
			gb.Direct() != nil, gb.Specialized())
	}

	// A decision-tree run lowers to one tree unit of the flat plan.
	tree := make([]*Binding, treeThreshold)
	for i := range tree {
		tree[i] = &Binding{
			Guards: []Guard{{Pred: ArgEq(0, uint64(i))}},
			Fn:     countingHandler(&n, nil),
		}
	}
	tp := Compile(info(1, false), tree, nil, nil, Options{EnableDecisionTree: true})
	if !tp.Specialized() || len(tp.flat) != 1 || tp.flat[0].kind != kindTree {
		t.Error("decision-tree plan must lower to one flat tree unit")
	}
}

// TestSpecializedExecutesIdentically runs the flattened executor against
// the traced twin, the independent per-step routine, on a plan mixing an
// inline leaf, an And-tree and an out-of-line guard.
func TestSpecializedExecutesIdentically(t *testing.T) {
	cell := new(atomic.Uint64)
	fired := []string{}
	mark := func(name string) HandlerFn {
		return func(any, []any) any { fired = append(fired, name); return name }
	}
	bs := []*Binding{
		{Guards: []Guard{{Pred: ArgEq(0, 80)}}, Fn: mark("http")},
		{Guards: []Guard{{Pred: And(GlobalEq(cell, 0), ArgEq(0, 443))}}, Fn: mark("https")},
		{Guards: []Guard{{Fn: func(_ any, args []any) bool { return true }}}, Fn: mark("all")},
	}
	run := func(opts Options, args ...any) ([]string, Outcome) {
		p := Compile(info(1, true), bs, nil, nil, opts)
		fired = nil
		out := p.Execute(&Env{}, args)
		return fired, out
	}
	for _, args := range [][]any{{uint64(80)}, {uint64(443)}, {uint64(7)}} {
		want, wantOut := run(Options{Trace: trace.New(trace.Config{Sample: 1})}, args...)
		for _, opts := range []Options{{}, {DisableInline: true, DisablePeephole: true}} {
			got, gotOut := run(opts, args...)
			if len(got) != len(want) {
				t.Fatalf("opts %+v args %v: fired %v, traced twin %v", opts, args, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("opts %+v args %v: order %v, traced twin %v", opts, args, got, want)
				}
			}
			if gotOut != wantOut {
				t.Fatalf("opts %+v args %v: outcome %+v, traced twin %+v", opts, args, gotOut, wantOut)
			}
		}
	}
}

func TestSpecializedDefaultHandler(t *testing.T) {
	n := 0
	d := &Binding{Fn: func(any, []any) any { return "default" }}
	p := Compile(info(1, true), guardedBindings(1, &n), nil, d, Options{})
	if !p.Specialized() {
		t.Fatal("plan with default handler should still specialize")
	}
	// Guard cell is 0 -> handler fires, no default.
	out := p.Execute(&Env{}, []any{uint64(1)})
	if out.Fired != 1 || out.UsedDefault {
		t.Fatalf("fired=%d usedDefault=%v", out.Fired, out.UsedDefault)
	}
	// Fail the guard: the default must fire and be counted batched.
	cell2 := new(atomic.Uint64)
	cell2.Store(9)
	bs := []*Binding{{
		Guards: []Guard{{Pred: GlobalEq(cell2, 0)}},
		Fn:     countingHandler(&n, nil),
	}}
	p2 := Compile(info(1, true), bs, nil, d, Options{})
	var total stripe.Counter
	out = p2.Execute(&Env{FiredTotal: &total}, []any{uint64(1)})
	if out.Fired != 0 || !out.UsedDefault || out.Result != "default" {
		t.Fatalf("default not applied: %+v", out)
	}
	if total.Load() != 1 {
		t.Fatalf("batched total %d after default firing, want 1", total.Load())
	}
}

// TestMeteredChargeParity pins the metered charge of the flattened
// executor to the traced twin's, which charges each operation as it runs:
// the same plan must cost the same virtual time through either routine.
func TestMeteredChargeParity(t *testing.T) {
	n := 0
	args := []any{uint64(1)}
	costs := make(map[bool]vtime.Duration)
	for _, traced := range []bool{false, true} {
		var opts Options
		if traced {
			opts.Trace = trace.New(trace.Config{Sample: 1})
		}
		p := Compile(info(1, false), guardedBindings(3, &n), nil, nil, opts)
		if p.Traced() != traced {
			t.Fatalf("Traced()=%v, want %v", p.Traced(), traced)
		}
		costs[traced] = meteredExec(p, args)
	}
	if costs[false] != costs[true] || costs[false] == 0 {
		t.Fatalf("metered cost diverges from the traced twin: flat=%v traced=%v",
			costs[false], costs[true])
	}
}

// TestSpecializedStatsFallback pins the per-fire OnFire contract for
// direct codegen users: without Env.FiredTotal the executor
// reports each firing through OnFire exactly like the traced twin.
func TestSpecializedStatsFallback(t *testing.T) {
	n := 0
	bs := guardedBindings(3, &n)
	for i, b := range bs {
		b.Tag = i
	}
	p := Compile(info(1, false), bs, nil, nil, Options{})
	if !p.Specialized() {
		t.Fatal("expected specialized plan")
	}
	var tags []any
	p.Execute(&Env{OnFire: func(tag any) { tags = append(tags, tag) }}, []any{uint64(1)})
	if len(tags) != 3 || tags[0] != 0 || tags[1] != 1 || tags[2] != 2 {
		t.Fatalf("OnFire fallback tags: %v", tags)
	}
}
