package main

import (
	"strings"
	"testing"

	"spin/internal/x11"
)

func TestPreviewGolden(t *testing.T) {
	g, err := parsePreviewGolden(previewGoldenText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.table, "total 23.41s") || g.tracedSyscalls != 3772 ||
		g.bytesReceived != 3_420_000 || g.pagesShown != 12 {
		t.Fatalf("golden file does not hold the paper's preview: %+v", g)
	}
	res, err := x11.Run(x11.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check(res); err != nil {
		t.Fatalf("golden check rejects the unchanged program: %v", err)
	}
	for name, perturb := range map[string]func(r *x11.Result){
		"syscalls": func(r *x11.Result) { r.TracedSyscalls++ },
		"bytes":    func(r *x11.Result) { r.BytesReceived-- },
		"pages":    func(r *x11.Result) { r.PagesShown = 11 },
		"raised":   func(r *x11.Result) { r.Rows[0].Raised++ },
		"total":    func(r *x11.Result) { r.Total += 10_000_000 },
	} {
		bad := *res
		bad.Rows = append([]x11.Row(nil), res.Rows...)
		perturb(&bad)
		if err := g.check(&bad); err == nil {
			t.Errorf("golden check accepts a result with perturbed %s", name)
		}
	}
	if _, err := parsePreviewGolden("traced_syscalls 1\n"); err == nil {
		t.Error("golden without separator parsed")
	}
}

func TestFaninChecks(t *testing.T) {
	r, err := newFanRig(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.do(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.check(); err != nil {
		t.Fatalf("check rejects a correct echo: %v", err)
	}
	good := *r.reply
	wrong := good
	wrong.Payload = append([]byte(nil), good.Payload...)
	wrong.Payload[0] ^= 1
	r.reply = &wrong
	if r.check() == nil {
		t.Error("check accepts an echo of the wrong payload")
	}
	r.reply = &good
	r.replyAt++
	if r.check() == nil {
		t.Error("check accepts a round trip off the golden virtual time")
	}
	r.reply = nil
	if r.check() == nil {
		t.Error("check accepts a lost echo")
	}
	if err := r.checkInactive(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.inactive[0].Event().Raise(uint64(fanFirstPort), &good); err != nil {
		t.Fatal(err)
	}
	if r.checkInactive() == nil {
		t.Error("inactive check misses a fired endpoint")
	}
}

func TestChurnChecks(t *testing.T) {
	w, err := newChurnWorld(newChurnInputs(3))
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	w.round(0, nil, rep)
	if rep.failed != 0 {
		t.Fatalf("round failed: %v", rep.problems)
	}
	w.hits[0]++ // claim a hit the program never saw
	if err := w.check(newReport()); err == nil {
		t.Fatal("check accepts fired counts that disagree with the hits issued")
	}
}
