package trace

import (
	"fmt"
	"io"

	"wcle/internal/sim"
)

// Event is one recorded send.
type Event struct {
	Round    int
	From, To int
	Kind     string
	Bits     int
}

// Recorder captures up to Cap events (0 means DefaultCap) and always keeps
// aggregate counts.
type Recorder struct {
	Cap     int
	Events  []Event
	Total   int64
	Skipped int64
}

// DefaultCap bounds recorded events if Recorder.Cap is unset.
const DefaultCap = 100_000

var _ sim.Observer = (*Recorder)(nil)

// OnSend implements sim.Observer.
func (r *Recorder) OnSend(round int, from, fromPort, to, toPort int, m sim.Message) {
	r.Total++
	if len(r.Events) >= effectiveCap(r.Cap) {
		r.Skipped++
		return
	}
	r.Events = append(r.Events, Event{Round: round, From: from, To: to, Kind: m.Kind(), Bits: m.Bits()})
}

// effectiveCap resolves a Cap field to the bound actually enforced
// (0 means DefaultCap), so skip messages report the real limit.
func effectiveCap(c int) int {
	if c == 0 {
		return DefaultCap
	}
	return c
}

// Dump writes the recorded events as text, one per line.
func (r *Recorder) Dump(w io.Writer) error {
	for _, e := range r.Events {
		if _, err := fmt.Fprintf(w, "round=%d %d->%d kind=%s bits=%d\n", e.Round, e.From, e.To, e.Kind, e.Bits); err != nil {
			return err
		}
	}
	if r.Skipped > 0 {
		if _, err := fmt.Fprintf(w, "... %d further events not recorded (cap %d)\n", r.Skipped, effectiveCap(r.Cap)); err != nil {
			return err
		}
	}
	return nil
}

// RoundCounter tallies messages per round (sparse).
type RoundCounter struct {
	Counts map[int]int64
}

var _ sim.Observer = (*RoundCounter)(nil)

// OnSend implements sim.Observer.
func (rc *RoundCounter) OnSend(round int, from, fromPort, to, toPort int, m sim.Message) {
	if rc.Counts == nil {
		rc.Counts = make(map[int]int64)
	}
	rc.Counts[round]++
}

// UpTo sums the messages sent in rounds <= r.
func (rc *RoundCounter) UpTo(r int) int64 {
	var s int64
	for round, c := range rc.Counts {
		if round <= r {
			s += c
		}
	}
	return s
}

// KindCounter tallies accepted sends per message kind. It is the opt-in
// replacement for sim.Metrics.ByKind when a run uses Config.LeanMetrics:
// attach it as the observer only when per-kind counts are actually wanted,
// keeping the simulator's send path free of map writes otherwise.
type KindCounter struct {
	Counts map[string]int64
}

var _ sim.Observer = (*KindCounter)(nil)

// OnSend implements sim.Observer.
func (kc *KindCounter) OnSend(round int, from, fromPort, to, toPort int, m sim.Message) {
	if kc.Counts == nil {
		kc.Counts = make(map[string]int64)
	}
	kc.Counts[m.Kind()]++
}

// FaultLog records the fault plane's interventions: up to Cap events
// (0 means DefaultCap) plus always-on aggregate counts per kind. Attach it
// via sim.Config.FaultObserver (or engine.Options.FaultObserver) to make a
// faulty run's drops, delays, crashes, and mutations observable.
type FaultLog struct {
	Cap     int
	Events  []sim.FaultEvent
	Skipped int64

	Drops     int64
	Delays    int64
	Crashes   int64
	Mutations int64
}

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
	if len(l.Events) >= effectiveCap(l.Cap) {
		l.Skipped++
		return
	}
	l.Events = append(l.Events, ev)
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
		if _, err := fmt.Fprintf(w, "... %d further fault events not recorded (cap %d)\n", l.Skipped, effectiveCap(l.Cap)); err != nil {
			return err
		}
	}
	return nil
}

// Multi fans one observer stream out to several observers.
type Multi []sim.Observer

var _ sim.Observer = (Multi)(nil)

// OnSend implements sim.Observer.
func (m Multi) OnSend(round int, from, fromPort, to, toPort int, msg sim.Message) {
	for _, o := range m {
		o.OnSend(round, from, fromPort, to, toPort, msg)
	}
}
