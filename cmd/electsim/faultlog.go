package main

import (
	"fmt"
	"io"

	"wcle/internal/sim"
)

// FaultLog records the fault plane's interventions: up to Cap events
// (0 means defaultFaultCap) plus always-on aggregate counts per kind.
// Attach it via engine.Options.FaultObserver to make a faulty run's drops,
// delays, crashes, and mutations observable.
type FaultLog struct {
	Cap     int
	Events  []sim.FaultEvent
	Skipped int64

	Drops     int64
	Delays    int64
	Crashes   int64
	Mutations int64
}

// defaultFaultCap bounds recorded events if FaultLog.Cap is unset.
const defaultFaultCap = 100_000

var _ sim.FaultObserver = (*FaultLog)(nil)

// OnFault implements sim.FaultObserver.
func (l *FaultLog) OnFault(ev sim.FaultEvent) {
	switch ev.Kind {
	case sim.FaultDrop:
		l.Drops++
	case sim.FaultDelay:
		l.Delays++
	case sim.FaultCrash:
		l.Crashes++
	case sim.FaultMutate:
		l.Mutations++
	}
	if len(l.Events) >= l.limit() {
		l.Skipped++
		return
	}
	l.Events = append(l.Events, ev)
}

// limit resolves Cap to the bound actually enforced, so the skip line
// reports the real limit.
func (l *FaultLog) limit() int {
	if l.Cap == 0 {
		return defaultFaultCap
	}
	return l.Cap
}

// Dump writes the recorded fault events as text, one per line.
func (l *FaultLog) Dump(w io.Writer) error {
	for _, e := range l.Events {
		if _, err := fmt.Fprintf(w, "round=%d fault=%s node=%d from=%d delay=%d\n",
			e.Round, e.Kind, e.Node, e.From, e.Delay); err != nil {
			return err
		}
	}
	if l.Skipped > 0 {
		if _, err := fmt.Fprintf(w, "... %d further fault events not recorded (cap %d)\n", l.Skipped, l.limit()); err != nil {
			return err
		}
	}
	return nil
}
