package main

import (
	"strings"
	"testing"

	"wcle/internal/sim"
)

func TestFaultLogRecordsAndCaps(t *testing.T) {
	l := &FaultLog{Cap: 2}
	l.OnFault(sim.FaultEvent{Round: 1, Kind: sim.FaultDrop, Node: 3, From: 0})
	l.OnFault(sim.FaultEvent{Round: 2, Kind: sim.FaultDelay, Node: 4, From: 1, Delay: 2})
	l.OnFault(sim.FaultEvent{Round: 3, Kind: sim.FaultCrash, Node: 5, From: -1})
	if l.Drops != 1 || l.Delays != 1 || l.Crashes != 1 {
		t.Fatalf("counts wrong: %+v", l)
	}
	if len(l.Events) != 2 || l.Skipped != 1 {
		t.Fatalf("cap not applied: %d events, %d skipped", len(l.Events), l.Skipped)
	}
	var sb strings.Builder
	if err := l.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fault=drop", "fault=delay", "further fault events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpReportsEffectiveCap(t *testing.T) {
	// With Cap unset the enforced bound is defaultFaultCap; the skip line
	// must report that bound, not the literal zero.
	l := &FaultLog{Skipped: 2}
	var sb strings.Builder
	if err := l.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(cap 100000)") {
		t.Fatalf("fault log dump should report the effective cap, got:\n%s", sb.String())
	}

	// An explicit cap still prints as itself.
	e := &FaultLog{Cap: 7, Skipped: 1}
	sb.Reset()
	if err := e.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(cap 7)") {
		t.Fatalf("explicit cap should print verbatim, got:\n%s", sb.String())
	}
}
