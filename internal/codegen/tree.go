package codegen

// Decision-tree guard optimization — the paper's stated future work:
// "we presently do not optimize the guard decision tree, which would be
// effective for the port comparison required by this example. We are
// currently working on a strategy by which this type of guard
// optimization can be easily expressed" (§3.2).
//
// The strategy implemented here: during plan compilation, a consecutive
// run of bindings whose entire guard list is a single ArgEq predicate on
// the same argument index collapses into one decision-tree unit. At
// dispatch time the argument word is extracted once and hashed to the
// matching bindings, so evaluation cost is O(1) in the number of guarded
// endpoints instead of O(n) — Table 2's per-guard slope disappears.
//
// Correctness: ArgEq guards on the same argument with different constants
// are mutually exclusive, so regrouping them cannot change which handlers
// fire; bindings sharing a constant keep their relative order inside the
// branch; and only *consecutive* runs collapse, so ordering against
// non-tree bindings interleaved in the handler list is preserved. The
// transformation relies on guards being FUNCTIONAL: evaluation can be
// skipped entirely for non-matching branches only because guards cannot
// have side effects (§2.3 "Evaluating guards").
//
// The optimization is off by default, matching the paper's system;
// Options.EnableDecisionTree turns it on (the ablation benchmarks compare
// both).

// treeThreshold is the minimum run length worth a tree; below it the
// linear scan is cheaper than the setup.
const treeThreshold = 4

// unit is one dispatch step after tree grouping: either a single linear
// step or a decision tree over an argument word.
type unit struct {
	single *step
	// tree fields; used when single is nil.
	treeArg  int
	branches map[uint64][]step
	// treeSize is the number of bindings folded into the tree, for
	// disassembly and tests.
	treeSize int
}

// treeKey reports whether a step is eligible to join a decision tree, and
// on which (argument, constant) it discriminates.
func treeKey(st *step) (arg int, k uint64, ok bool) {
	if len(st.guards) != 1 || st.guards[0].Pred == nil {
		return 0, 0, false
	}
	p := st.guards[0].Pred
	if p.Op != PredArgEq {
		return 0, 0, false
	}
	// Async and ephemeral bindings are fine (the tree only replaces
	// guard evaluation), but filters are not: a filter can rewrite the
	// discriminated argument for later bindings, and the tree extracts
	// the word once.
	if st.b.Filter {
		return 0, 0, false
	}
	return p.Arg, p.K, true
}

// buildUnits groups a compiled step list into dispatch units, collapsing
// eligible consecutive runs into decision trees.
func buildUnits(steps []step, enable bool) []unit {
	units := make([]unit, 0, len(steps))
	i := 0
	for i < len(steps) {
		if !enable {
			units = append(units, unit{single: &steps[i]})
			i++
			continue
		}
		arg, _, ok := treeKey(&steps[i])
		if !ok {
			units = append(units, unit{single: &steps[i]})
			i++
			continue
		}
		// Extend the run of steps discriminating on the same argument.
		j := i + 1
		for j < len(steps) {
			a2, _, ok2 := treeKey(&steps[j])
			if !ok2 || a2 != arg {
				break
			}
			j++
		}
		if j-i < treeThreshold {
			for ; i < j; i++ {
				units = append(units, unit{single: &steps[i]})
			}
			continue
		}
		u := unit{treeArg: arg, branches: make(map[uint64][]step), treeSize: j - i}
		for _, st := range steps[i:j] {
			_, k, _ := treeKey(&st)
			// Inside a branch the guard is already decided; strip it
			// so execution charges no per-binding guard cost.
			st.guards = nil
			u.branches[k] = append(u.branches[k], st)
		}
		units = append(units, u)
		i = j
	}
	return units
}
