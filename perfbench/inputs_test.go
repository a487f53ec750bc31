package main

import (
	"reflect"
	"testing"
)

func TestFaninPayloadsFollowSeed(t *testing.T) {
	a, b := fanPayloadSet(7), fanPayloadSet(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different payloads")
	}
	if reflect.DeepEqual(a, fanPayloadSet(8)) {
		t.Fatal("different seeds gave the same payloads")
	}
	for i, p := range a {
		if len(p) != 8 {
			t.Fatalf("payload %d has %d bytes, want 8", i, len(p))
		}
	}
}

func TestChurnInputsFollowSeed(t *testing.T) {
	a, b := newChurnInputs(7), newChurnInputs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different churn inputs")
	}
	if reflect.DeepEqual(a.schedule, newChurnInputs(8).schedule) {
		t.Fatal("different seeds gave the same schedule")
	}
	stable := map[uint64]int32{}
	for i, k := range a.stableKeys {
		stable[k] = int32(i)
	}
	for _, k := range a.missKeys {
		if _, dup := stable[k]; dup {
			t.Fatalf("miss key %d is also a stable key", k)
		}
	}
	if len(stable) != churnStable {
		t.Fatalf("%d distinct stable keys, want %d", len(stable), churnStable)
	}
	hits := 0
	for i, boxed := range a.schedule {
		k := boxed.(uint64)
		if k < 256 || k >= churnKeyBase {
			t.Fatalf("key %d outside the pre-boxed, never-churned range", k)
		}
		j, isStable := stable[k]
		switch {
		case a.stableIdx[i] >= 0 && (!isStable || j != a.stableIdx[i]):
			t.Fatalf("schedule %d: key %d labelled stable %d", i, k, a.stableIdx[i])
		case a.stableIdx[i] < 0 && isStable:
			t.Fatalf("schedule %d: stable key %d labelled a miss", i, k)
		}
		if isStable {
			hits++
		}
	}
	if share := 100 * hits / len(a.schedule); share < churnHitPercent-2 || share > churnHitPercent+2 {
		t.Fatalf("hit share %d%%, want about %d%%", share, churnHitPercent)
	}
}
