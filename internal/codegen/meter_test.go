package codegen

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"spin/internal/trace"
	"spin/internal/vtime"
)

// clockLog records every clock reading code outside a plan can make during
// a raise: handler, guard, result-handler, spawn, supervisor and OnFire
// entry, plus the fault hook's SyncCost figures. Handlers also do metered
// work of their own, split between the active account and the kernel
// account, so a wrong attribution moves a per-account total.
type clockLog struct {
	cpu  *vtime.CPU
	seen []string
}

func (l *clockLog) note(what string) {
	l.seen = append(l.seen, fmt.Sprintf("%s@%d", what, l.cpu.Now()))
}

// work is a handler body's own metered work.
func (l *clockLog) work() {
	l.cpu.SpendTo(vtime.AccountKernel, 1234)
	l.cpu.Spend(77)
}

func (l *clockLog) handler(name string, result any) HandlerFn {
	return func(any, []any) any {
		l.note(name)
		l.work()
		return result
	}
}

func (l *clockLog) guard(name string, pass func(args []any) bool) GuardFn {
	return func(_ any, args []any) bool {
		l.note(name)
		return pass(args)
	}
}

func (l *clockLog) env() *Env {
	return &Env{
		CPU: l.cpu,
		Spawn: func(int, func()) {
			l.note("spawn")
		},
		RunEphemeral: func(tag any, invoke func(context.Context) any) (any, bool) {
			l.note(fmt.Sprint("ephemeral ", tag))
			return invoke(context.Background()), true
		},
		OnFire: func(tag any) { l.note(fmt.Sprint("fire ", tag)) },
	}
}

func (l *clockLog) HandlerPanic(tag any, _ any, _ []byte) { l.note(fmt.Sprint("panic ", tag)) }
func (l *clockLog) GuardPanic(tag any, _ any, _ []byte)   { l.note(fmt.Sprint("guard panic ", tag)) }
func (l *clockLog) SyncCost(tag any, cost vtime.Duration) {
	l.seen = append(l.seen, fmt.Sprintf("synccost %v %d", tag, cost))
}

// meterCase builds one plan shape against a log.
type meterCase struct {
	name  string
	arity int
	build func(l *clockLog) (bs []*Binding, resultFn ResultFn, def *Binding, opts Options)
}

func argIs(i int, k uint64) func([]any) bool {
	return func(args []any) bool { w, ok := argWord(args, i); return ok && w == k }
}

func meterCases() []meterCase {
	return []meterCase{
		{"inline guards", 2, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: ArgEq(0, 1)}, {Pred: ArgLt(1, 5)}}, Inline: Nop()},
				{Tag: "b", Guards: []Guard{{Pred: ArgNe(0, 2)}}, Fn: l.handler("b", nil)},
				{Tag: "c", Guards: []Guard{{Pred: ArgEq(0, 3)}, {Pred: ArgEq(1, 3)}, {Pred: ArgEq(1, 3)}}, Inline: Nop()},
			}, nil, nil, Options{DisableBypass: true}
		}},
		{"out-of-line guards", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Fn: l.guard("ga", argIs(0, 1))}}, Fn: l.handler("a", nil)},
				{Tag: "b", Guards: []Guard{{Pred: ArgLt(0, 3)}, {Fn: l.guard("gb", argIs(0, 2))}}, Fn: l.handler("b", nil)},
			}, nil, nil, Options{}
		}},
		{"mixed guard order", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			// Without peephole the inline predicates stay around the
			// out-of-line call, so charges are owed on both sides of it.
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: ArgNe(0, 9)}, {Pred: ArgLt(0, 4)},
					{Fn: l.guard("ga", argIs(0, 1))}, {Pred: ArgNe(0, 8)}, {Pred: ArgEq(0, 1)}},
					Fn: l.handler("a", nil)},
				{Tag: "b", Guards: []Guard{{Pred: ArgEq(0, 0)}, {Fn: l.guard("gb", argIs(0, 0))}},
					Fn: l.handler("b", nil)},
			}, nil, nil, Options{DisablePeephole: true}
		}},
		{"constant guards without peephole", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			// A constant-true guard lowers to no leaf and an And guard to
			// several, but each is charged as one guard.
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: True()}, {Pred: ArgEq(0, 1)}}, Fn: l.handler("a", nil)},
				{Tag: "b", Guards: []Guard{{Pred: And(True(), ArgLt(0, 3))}, {Fn: l.guard("gb", argIs(0, 2))},
					{Pred: True()}}, Fn: l.handler("b", nil)},
				{Tag: "c", Guards: []Guard{{Pred: True()}, {Pred: False()}}, Fn: l.handler("c", nil)},
				{Tag: "d", Guards: []Guard{{Pred: True()}}, Inline: Nop()},
			}, nil, nil, Options{DisablePeephole: true}
		}},
		{"and-tree guards", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: And(ArgLt(0, 3), Not(ArgEq(0, 1)))}}, Fn: l.handler("a", nil)},
				{Tag: "b", Guards: []Guard{{Pred: Or(ArgEq(0, 1), And(ArgEq(0, 2), True()))}}, Inline: Nop()},
			}, nil, nil, Options{}
		}},
		{"decision tree", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			var bs []*Binding
			for k := uint64(0); k < 5; k++ {
				bs = append(bs, &Binding{Tag: k, Guards: []Guard{{Pred: ArgEq(0, k)}},
					Fn: l.handler(fmt.Sprint("t", k), nil)})
			}
			bs = append(bs, &Binding{Tag: "tail", Guards: []Guard{{Pred: ArgLt(0, 2)}}, Fn: l.handler("tail", nil)})
			return bs, nil, nil, Options{EnableDecisionTree: true}
		}},
		{"filter", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "f", Filter: true, Fn: func(_ any, args []any) any {
					l.note("filter")
					l.work()
					args[0] = uint64(2)
					return nil
				}},
				{Tag: "a", Guards: []Guard{{Pred: ArgEq(0, 2)}}, Fn: l.handler("a", nil)},
			}, nil, nil, Options{}
		}},
		{"async", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "async", Async: true, Guards: []Guard{{Pred: ArgLt(0, 2)}}, Fn: l.handler("async", nil)},
				{Tag: "a", Guards: []Guard{{Pred: ArgEq(0, 1)}}, Fn: l.handler("a", nil)},
			}, nil, nil, Options{}
		}},
		{"ephemeral", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "eph", Ephemeral: true, Guards: []Guard{{Pred: ArgLt(0, 2)}}, Fn: l.handler("eph", nil)},
				{Tag: "a", Inline: Nop()},
			}, nil, nil, Options{}
		}},
		{"default handler", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: ArgEq(0, 1)}}, Fn: l.handler("a", "r")},
			}, nil, &Binding{Tag: "default", Fn: l.handler("default", "d")}, Options{}
		}},
		{"result merge", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			merge := func(acc, res any, i int) any {
				l.note(fmt.Sprint("merge ", i))
				return fmt.Sprint(acc, res)
			}
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: ArgLt(0, 3)}}, Fn: l.handler("a", "x")},
				{Tag: "b", Inline: ReturnConst("y")},
				{Tag: "c", Guards: []Guard{{Pred: ArgEq(0, 1)}}, Fn: l.handler("c", "z")},
			}, merge, nil, Options{}
		}},
		{"direct bypass", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{{Tag: "direct", Fn: l.handler("direct", nil)}}, nil, nil, Options{}
		}},
		{"disable inline", 2, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: ArgEq(0, 1)}, {Pred: ArgLt(1, 5)}}, Inline: Nop(), Fn: l.handler("a", nil)},
				{Tag: "b", Guards: []Guard{{Fn: l.guard("gb", argIs(1, 1))}}, Fn: l.handler("b", nil)},
			}, nil, &Binding{Tag: "default", Inline: Nop(), Fn: l.handler("default", nil)}, Options{DisableInline: true}
		}},
		{"protect", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{
				{Tag: "a", Guards: []Guard{{Pred: ArgNe(0, 3)}, {Fn: l.guard("ga", func(args []any) bool {
					if w, _ := argWord(args, 0); w == 2 {
						panic("guard fault")
					}
					return true
				})}}, Fn: l.handler("a", nil)},
				{Tag: "b", Guards: []Guard{{Pred: ArgEq(0, 1)}}, Fn: func(any, []any) any {
					l.note("b")
					l.work()
					panic("handler fault")
				}},
				{Tag: "f", Filter: true, Fn: l.handler("f", nil)},
			}, nil, &Binding{Tag: "default", Fn: l.handler("default", nil)}, Options{Protect: l}
		}},
		{"protect direct bypass", 1, func(l *clockLog) ([]*Binding, ResultFn, *Binding, Options) {
			return []*Binding{{Tag: "direct", Fn: l.handler("direct", nil)}}, nil, nil, Options{Protect: l}
		}},
	}
}

// meterRun is everything a metered raise sequence lets the outside see.
type meterRun struct {
	seen      []string
	outcomes  []Outcome
	breakdown vtime.Breakdown
	now       vtime.Time
}

// runMetered compiles the case on a fresh meter and raises it with every
// argument vector, each raise bracketed the way the dispatcher brackets a
// metered raise. traced compiles tracing in at a 1-in-1 sample, so every
// raise runs the traced twin, which charges each operation as it runs.
func runMetered(t *testing.T, c meterCase, traced bool, raises [][]uint64) meterRun {
	t.Helper()
	var clock vtime.Clock
	l := &clockLog{cpu: vtime.NewCPU(&clock, vtime.AlphaModel())}
	bs, resultFn, def, opts := c.build(l)
	if traced {
		opts.Trace = trace.New(trace.Config{Sample: 1})
	}
	p := Compile(EventInfo{Name: "Meter.Event", Arity: c.arity, HasResult: true}, bs, resultFn, def, opts)
	if p.Traced() != traced {
		t.Fatalf("%s: Traced() = %v, want %v", c.name, p.Traced(), traced)
	}
	env := l.env()
	var r meterRun
	for _, words := range raises {
		args := make([]any, c.arity)
		for i := range args {
			args[i] = words[i%len(words)]
		}
		l.note("raise")
		l.cpu.Begin(vtime.AccountEvents)
		r.outcomes = append(r.outcomes, p.Execute(env, args))
		l.cpu.End()
		l.note("return")
	}
	r.seen, r.breakdown, r.now = l.seen, l.cpu.Breakdown(), clock.Now()
	return r
}

// TestMeteredRaiseMatchesTracedTwin is the differential check on the
// executor's charge batching: for every plan shape, the untraced
// routine — which adds charges up and pays them at clock observations —
// must leave every clock reading outside the plan, every SyncCost, every
// per-account total and the final clock exactly where the traced twin,
// which charges per operation, leaves them.
func TestMeteredRaiseMatchesTracedTwin(t *testing.T) {
	raises := [][]uint64{{0, 0}, {1, 1}, {2, 4}, {3, 3}, {1, 9}, {7}, {4, 1}}
	for _, c := range meterCases() {
		t.Run(c.name, func(t *testing.T) {
			got := runMetered(t, c, false, raises)
			want := runMetered(t, c, true, raises)
			if !reflect.DeepEqual(got.seen, want.seen) {
				t.Errorf("clock readings differ:\n got  %v\n want %v", got.seen, want.seen)
			}
			if !reflect.DeepEqual(got.outcomes, want.outcomes) {
				t.Errorf("outcomes differ:\n got  %+v\n want %+v", got.outcomes, want.outcomes)
			}
			if got.breakdown != want.breakdown {
				t.Errorf("per-account totals differ:\n got  %v\n want %v", got.breakdown.Totals, want.breakdown.Totals)
			}
			if got.now != want.now {
				t.Errorf("final clock %d, want %d", got.now, want.now)
			}
			if got.now == 0 {
				t.Error("raises charged no virtual time")
			}
		})
	}
}
