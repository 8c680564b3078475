// Command electtrace analyzes the NDJSON traces emitted by electsim
// -trace, electnode -trace/-flight-dump, and electd: round-latency
// waterfalls, per-shard critical paths, message-kind breakdowns, and
// conversion to the Chrome trace-event format (load the result in
// chrome://tracing or https://ui.perfetto.dev).
//
// Examples:
//
//	electsim -graph rr -n 128 -seed 7 -trace run.ndjson
//	electtrace run.ndjson                    # round-latency waterfall
//	electtrace -mode critical run.ndjson     # where each shard spends its time
//	electtrace -mode kinds run.ndjson        # message kinds and fault events
//	electtrace -mode chrome -out run.json run.ndjson
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"wcle/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "electtrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mode = flag.String("mode", "waterfall", "analysis: waterfall|critical|kinds|chrome")
		top  = flag.Int("top", 24, "waterfall: show this many slowest rounds")
		out  = flag.String("out", "", "chrome: output file (default stdout)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: electtrace [-mode waterfall|critical|kinds|chrome] trace.ndjson")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := obs.ReadNDJSON(f)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s: no trace events", flag.Arg(0))
	}
	switch *mode {
	case "waterfall":
		return waterfall(evs, *top)
	case "critical":
		return critical(evs)
	case "kinds":
		return kinds(evs)
	case "chrome":
		w := os.Stdout
		if *out != "" {
			g, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer g.Close()
			w = g
		}
		return obs.WriteChromeTrace(w, evs)
	default:
		return fmt.Errorf("unknown mode %q (waterfall|critical|kinds|chrome)", *mode)
	}
}

// span keys are "cat/name" so sim compute and cluster wire-flush sort
// side by side without colliding.
func spanKey(ev obs.Ev) string { return ev.Cat + "/" + ev.Name }

func fdur(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }

// bar renders ns as a bar scaled so max fills width cells.
func bar(ns, max int64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(ns * int64(width) / max)
	if n == 0 && ns > 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// waterfall renders the per-round latency waterfall: every round that
// carries spans gets one line per span, bars scaled to the slowest round.
// With more busy rounds than -top, only the slowest are shown (in round
// order), so long runs stay readable.
func waterfall(evs []obs.Ev, top int) error {
	header(evs)
	type roundAgg struct {
		round int64
		total int64
		spans []obs.Ev // in TS order
	}
	byRound := map[int64]*roundAgg{}
	for _, ev := range evs {
		if ev.Dur <= 0 || ev.Round < 0 {
			continue
		}
		ra := byRound[ev.Round]
		if ra == nil {
			ra = &roundAgg{round: ev.Round}
			byRound[ev.Round] = ra
		}
		ra.total += ev.Dur
		ra.spans = append(ra.spans, ev)
	}
	if len(byRound) == 0 {
		fmt.Println("no per-round spans in this trace")
		return nil
	}
	rounds := make([]*roundAgg, 0, len(byRound))
	for _, ra := range byRound {
		rounds = append(rounds, ra)
	}
	if len(rounds) > top {
		sort.Slice(rounds, func(i, j int) bool { return rounds[i].total > rounds[j].total })
		rounds = rounds[:top]
		fmt.Printf("showing the %d slowest of %d busy rounds\n", top, len(byRound))
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].round < rounds[j].round })
	var max int64
	for _, ra := range rounds {
		for _, ev := range ra.spans {
			if ev.Dur > max {
				max = ev.Dur
			}
		}
	}
	for _, ra := range rounds {
		sort.SliceStable(ra.spans, func(i, j int) bool { return ra.spans[i].TS < ra.spans[j].TS })
		fmt.Printf("round %-8d total %s\n", ra.round, fdur(ra.total))
		for _, ev := range ra.spans {
			label := spanKey(ev)
			if ev.Shard != 0 {
				label = fmt.Sprintf("%s s%d", label, ev.Shard)
			}
			fmt.Printf("  %-22s %10s  %s\n", label, fdur(ev.Dur), bar(ev.Dur, max, 48))
		}
	}
	return nil
}

// critical renders, per shard, where the wall time went: span kinds
// sorted by total duration — the shard's critical path at a glance.
func critical(evs []obs.Ev) error {
	header(evs)
	type agg struct {
		total, max int64
		n          int64
	}
	shards := map[int]map[string]*agg{}
	for _, ev := range evs {
		if ev.Dur <= 0 {
			continue
		}
		m := shards[ev.Shard]
		if m == nil {
			m = map[string]*agg{}
			shards[ev.Shard] = m
		}
		a := m[spanKey(ev)]
		if a == nil {
			a = &agg{}
			m[spanKey(ev)] = a
		}
		a.total += ev.Dur
		a.n++
		if ev.Dur > a.max {
			a.max = ev.Dur
		}
	}
	if len(shards) == 0 {
		fmt.Println("no spans in this trace")
		return nil
	}
	ids := make([]int, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := shards[id]
		keys := make([]string, 0, len(m))
		var shardTotal int64
		for k, a := range m {
			keys = append(keys, k)
			shardTotal += a.total
		}
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]].total > m[keys[j]].total })
		fmt.Printf("shard %d: %s across %d span kinds\n", id, fdur(shardTotal), len(keys))
		for _, k := range keys {
			a := m[k]
			pct := float64(a.total) * 100 / float64(shardTotal)
			fmt.Printf("  %-22s %10s  %5.1f%%  n=%-6d max=%s\n", k, fdur(a.total), pct, a.n, fdur(a.max))
		}
	}
	return nil
}

// tally folds a trace's end-of-run message-kind instants and its fault
// instants into totals by name. A fault instant adds its "count" arg (the
// sim's per-round drop/delay/mutate tallies) or 1 when it has none (crash
// instants, and traces that recorded one instant per faulty send).
func tally(evs []obs.Ev) (kindCount, faultCount map[string]int64) {
	kindCount, faultCount = map[string]int64{}, map[string]int64{}
	for _, ev := range evs {
		switch ev.Cat {
		case "kind":
			kindCount[ev.Name] += ev.Args["count"]
		case "fault":
			n, ok := ev.Args["count"]
			if !ok {
				n = 1
			}
			faultCount[ev.Name] += n
		}
	}
	return kindCount, faultCount
}

// kinds renders the end-of-run message-kind counters and the fault-event
// tally.
func kinds(evs []obs.Ev) error {
	header(evs)
	kindCount, faultCount := tally(evs)
	if len(kindCount) == 0 && len(faultCount) == 0 {
		fmt.Println("no kind or fault events in this trace")
		return nil
	}
	if len(kindCount) > 0 {
		var total, max int64
		names := make([]string, 0, len(kindCount))
		for k, c := range kindCount {
			names = append(names, k)
			total += c
			if c > max {
				max = c
			}
		}
		sort.Slice(names, func(i, j int) bool { return kindCount[names[i]] > kindCount[names[j]] })
		fmt.Printf("messages by kind (total %d):\n", total)
		for _, k := range names {
			c := kindCount[k]
			fmt.Printf("  %-14s %10d  %5.1f%%  %s\n", k, c, float64(c)*100/float64(total), bar(c, max, 40))
		}
	}
	if len(faultCount) > 0 {
		names := make([]string, 0, len(faultCount))
		for k := range faultCount {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Println("fault events:")
		for _, k := range names {
			fmt.Printf("  %-14s %10d\n", k, faultCount[k])
		}
	}
	return nil
}

// header prints the trace's envelope: event count, shard count, wall span.
func header(evs []obs.Ev) {
	minTS, maxTS := evs[0].TS, evs[0].TS
	shards := map[int]bool{}
	spans := 0
	for _, ev := range evs {
		if ev.TS < minTS {
			minTS = ev.TS
		}
		if end := ev.TS + ev.Dur; end > maxTS {
			maxTS = end
		}
		shards[ev.Shard] = true
		if ev.Dur > 0 {
			spans++
		}
	}
	fmt.Printf("trace: %d events (%d spans) over %d shard(s), wall %s\n",
		len(evs), spans, len(shards), fdur(maxTS-minTS))
}
