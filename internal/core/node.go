package core

import (
	"fmt"
	"slices"
	"sort"

	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// node is the per-node process. Every node relays tokens and tree traffic;
// contender nodes additionally run the guess-and-double phase logic.
type node struct {
	rt  *runtime
	idx int

	initialized bool
	id          protocol.ID
	contender   bool

	holder *protocol.Holder
	outbox *protocol.Outbox
	pool   *protocol.MsgPool

	// Walk trees, one per known origin, as parallel slices sorted by
	// origin id (binary-search lookup; the map this replaces dominated the
	// step hot path).
	origins []protocol.ID
	treev   []*tree

	// Scratch buffers for assembling id fragments handed to the outbox
	// (which copies); one per call-graph level so nested use never aliases.
	scrRoot  []protocol.ID // rootConsumeX1's fresh ids
	scrRelay []protocol.ID // relayDownX2's fresh ids
	scrStore []protocol.ID // storeI2's fresh ids
	scrI3    []protocol.ID // registerProxy's I3 snapshot
	scrChild []protocol.ID // noteChild's sorted down-flood prefix
	scrOne   [1]protocol.ID

	winSeen      protocol.ID
	winProxyDone bool // "the first time a proxy receives a winner message"
	winRootDone  bool // "the first time a contender receives a winner message"

	// Contender state.
	active     bool
	stopped    bool // satisfied both properties
	suppressed bool // saw a winner while active; gave up
	failed     bool // hit the walk-length cap
	leader     bool
	phase      int
	awaitStart int // round of the next phase start (-1 when none)

	dSum, pSum int
	i2         protocol.IDSet // a bitset over the outbox's Index, like every id set here
	i2max      protocol.ID
	i4max      protocol.ID

	stopRound, leadRound int
	staleDrops           int64
}

var _ sim.Process = (*node)(nil)

// Output is the node's election decision vector [leader(0/1),
// contender(0/1), drawn id (0 when not a contender)] — the engine-level
// view of the state Collect folds into the richer native Result.
func (nd *node) Output() []int64 {
	leader, contender := int64(0), int64(0)
	if nd.leader {
		leader = 1
	}
	if nd.contender {
		contender = 1
	}
	return []int64{leader, contender, int64(nd.id)}
}

func newNode(rt *runtime, idx, degree int) *node {
	pool := &protocol.MsgPool{}
	ob := protocol.NewOutbox(rt.codec, degree)
	ob.Pool = pool
	ob.Resend = rt.cfg.Resend
	return &node{
		rt:         rt,
		idx:        idx,
		holder:     protocol.NewHolder(),
		outbox:     ob,
		pool:       pool,
		phase:      -1,
		awaitStart: -1,
		stopRound:  -1,
		leadRound:  -1,
	}
}

// tree returns the walk tree for origin, or nil. Closure-free binary
// search: this lookup runs once per delivered message.
func (nd *node) tree(origin protocol.ID) *tree {
	v := nd.origins
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < origin {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v) && v[lo] == origin {
		return nd.treev[lo]
	}
	return nil
}

// Step implements sim.Process.
func (nd *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	if !nd.initialized {
		nd.initRound0(ctx)
	}
	for _, env := range inbox {
		if err := nd.handle(ctx, env); err != nil {
			return err
		}
		// The message is fully consumed (handlers copy what they keep);
		// recycle it for this node's own sends.
		nd.pool.Put(env.Payload)
	}
	nd.boundaryActions(ctx)
	nd.stepTokens(ctx)
	win := nd.winSeen
	if nd.rt.cfg.DisablePiggyback {
		win = 0
	}
	if err := nd.outbox.Flush(ctx, win); err != nil {
		return err
	}
	if !nd.holder.Empty() || nd.outbox.Pending() > 0 {
		ctx.WakeAt(ctx.Round() + 1)
	}
	return nil
}

// initRound0 draws the protocol id and the contender coin (Algorithm 1).
func (nd *node) initRound0(ctx *sim.Context) {
	nd.initialized = true
	if forced, ok := nd.rt.cfg.ForcedIDs[nd.idx]; ok {
		nd.id = forced
	} else {
		nd.id = protocol.RandomID(ctx.Rand().Uint64, nd.rt.n)
	}
	if nd.rt.forced != nil {
		nd.contender = nd.rt.forced[nd.idx]
	} else {
		nd.contender = ctx.Rand().Float64() < nd.rt.pCont
	}
	if nd.contender {
		nd.active = true
		nd.beginPhase(ctx, 0)
	}
}

// beginPhase starts walk phase p: fresh accumulators, a fresh root tree,
// and the full batch of walk tokens (Algorithm 2 line 1).
func (nd *node) beginPhase(ctx *sim.Context, p int) {
	nd.phase = p
	nd.awaitStart = -1
	nd.dSum, nd.pSum = 0, 0
	own := nd.outbox.Index.Of(nd.id)
	nd.i2.Reset()
	nd.i2.Add(own)
	nd.i2max = nd.id
	nd.i4max = 0
	tr := nd.tree(nd.id)
	if tr == nil {
		tr = nd.addTree(nd.id, p, -1, true)
	} else {
		tr.resetForPhase(p, -1, true)
	}
	// The root's own id is part of its I2 from the start; record it so
	// every (possibly late) child receives it.
	tr.downX2.Add(own)
	nd.holder.Add(nd.id, p, nd.rt.sched.tus[p], nd.rt.walks)
	ctx.WakeAt(nd.rt.sched.decides[p])
}

// addTree creates the walk tree for a newly seen origin, with its merge-slot
// handle in the node's outbox.
func (nd *node) addTree(origin protocol.ID, phase, parentPort int, isRoot bool) *tree {
	tr := newTree(phase, parentPort, isRoot)
	tr.h = nd.outbox.NewHandle(origin)
	i := sort.Search(len(nd.origins), func(i int) bool { return nd.origins[i] >= origin })
	nd.origins = append(nd.origins, 0)
	copy(nd.origins[i+1:], nd.origins[i:])
	nd.origins[i] = origin
	nd.treev = append(nd.treev, nil)
	copy(nd.treev[i+1:], nd.treev[i:])
	nd.treev[i] = tr
	return tr
}

// alive reports whether a tree participates in the current protocol state:
// either it belongs to the current global phase or it was latched FINAL.
func (nd *node) alive(tr *tree, round int) bool {
	if tr == nil {
		return false
	}
	return tr.final || tr.phase == nd.rt.sched.phaseAt(round)
}

// treeFor locates (or creates / phase-resets) the tree for an arriving
// token. Returns nil for stale tokens of superseded phases.
func (nd *node) treeFor(origin protocol.ID, phase, arrivalPort int) *tree {
	tr := nd.tree(origin)
	if tr == nil {
		return nd.addTree(origin, phase, arrivalPort, false)
	}
	switch {
	case tr.phase == phase:
		return tr
	case tr.phase < phase:
		tr.resetForPhase(phase, arrivalPort, false)
		return tr
	default:
		return nil
	}
}

func (nd *node) handle(ctx *sim.Context, env sim.Envelope) error {
	switch m := env.Payload.(type) {
	case *protocol.TokenMsg:
		nd.noteWin(ctx, m.Win)
		nd.onToken(ctx, env.Port, m)
	case *protocol.UpMsg:
		nd.noteWin(ctx, m.Win)
		nd.onUp(ctx, m)
	case *protocol.DownMsg:
		nd.noteWin(ctx, m.Win)
		nd.onDown(ctx, m)
	default:
		return fmt.Errorf("core: unexpected message kind %q", env.Payload.Kind())
	}
	return nil
}

// noteWin latches the first winner sighting (explicit or piggybacked). An
// active contender that learns of a winner can never win itself: it stops
// initiating phases and latches its current proxies FINAL so the remaining
// active contenders still count it toward their intersection threshold.
func (nd *node) noteWin(ctx *sim.Context, win protocol.ID) {
	if win == 0 || nd.winSeen != 0 {
		return
	}
	nd.winSeen = win
	if nd.contender && nd.active && !nd.leader {
		nd.active = false
		nd.suppressed = true
		nd.awaitStart = -1
		nd.sendFinalOwnTree(ctx)
	}
}

func (nd *node) sendFinalOwnTree(ctx *sim.Context) {
	tr := nd.tree(nd.id)
	if tr == nil || !tr.isRoot {
		return
	}
	tr.final = true
	if tr.finalDown {
		return
	}
	tr.finalDown = true
	for _, port := range tr.children {
		nd.outbox.PushDown(port, tr.h, tr.phase, protocol.DownFinal, nil)
	}
}

func (nd *node) onToken(ctx *sim.Context, port int, m *protocol.TokenMsg) {
	tr := nd.treeFor(m.Origin, m.Phase, port)
	if tr == nil {
		nd.staleDrops++
		return
	}
	if m.Remaining == 0 {
		nd.registerProxy(ctx, m.Origin, tr, m.Count)
		return
	}
	nd.holder.Add(m.Origin, m.Phase, m.Remaining, m.Count)
}

// registerProxy accounts count walk completions of origin at this node,
// pushing the distinctness/proxy-count delta corrections upward, and on the
// first registration announces mutual adjacency with every other contender
// proxied here plus the current I3 snapshot (Algorithm 2 rounds 1 and 3,
// realized incrementally).
func (nd *node) registerProxy(ctx *sim.Context, origin protocol.ID, tr *tree, count int) {
	if count <= 0 {
		return
	}
	was := tr.proxyCount
	tr.proxyCount += count
	dDelta := dOf(tr.proxyCount) - dOf(was)
	pDelta := 0
	if was == 0 {
		pDelta = 1
	}
	if dDelta != 0 || pDelta != 0 {
		nd.pushUpX1(ctx, tr, nil, dDelta, pDelta)
	}
	if was != 0 {
		return
	}
	round := ctx.Round()
	// Mutual I1 announcements with co-proxied contenders.
	i3 := nd.scrI3[:0]
	for i, other := range nd.origins {
		if other == origin {
			continue
		}
		otr := nd.treev[i]
		if otr.proxyCount == 0 || !nd.alive(otr, round) {
			continue
		}
		nd.scrOne[0] = other
		nd.pushUpX1(ctx, tr, nd.scrOne[:1], 0, 0)
		nd.scrOne[0] = origin
		nd.pushUpX1(ctx, otr, nd.scrOne[:1], 0, 0)
		i3 = otr.storedI2.AppendIDs(i3, &nd.outbox.Index)
	}
	// I3 snapshot: everything this node has stored from I2 floods.
	i3 = tr.storedI2.AppendIDs(i3, &nd.outbox.Index)
	if len(i3) > 0 {
		slices.Sort(i3)
		nd.pushUpX3(tr, i3)
	}
	nd.scrI3 = i3[:0]
}

// pushUpX1 routes exchange-round-1 data one hop toward the origin, or
// consumes it at the root.
func (nd *node) pushUpX1(ctx *sim.Context, tr *tree, ids []protocol.ID, dDelta, pDelta int) {
	if tr.isRoot {
		nd.rootConsumeX1(ctx, ids, dDelta, pDelta)
		return
	}
	nd.outbox.PushUp(tr.parentPort, tr.h, tr.phase, protocol.UpX1, ids, dDelta, pDelta)
}

func (nd *node) pushUpX3(tr *tree, ids []protocol.ID) {
	if tr.isRoot {
		for _, id := range ids {
			if id > nd.i4max {
				nd.i4max = id
			}
		}
		return
	}
	nd.outbox.PushUp(tr.parentPort, tr.h, tr.phase, protocol.UpX3, ids, 0, 0)
}

// rootConsumeX1 folds exchange-round-1 data into the contender's
// accumulators; newly learned adjacent ids flow down the tree as I2
// fragments (exchange round 2). The DisableInactiveExchange ablation
// freezes this once the contender stopped (the paper-literal reading).
func (nd *node) rootConsumeX1(ctx *sim.Context, ids []protocol.ID, dDelta, pDelta int) {
	if nd.rt.cfg.DisableInactiveExchange && !nd.active {
		return
	}
	nd.dSum += dDelta
	nd.pSum += pDelta
	if len(ids) == 0 {
		return
	}
	tr := nd.tree(nd.id)
	fresh := nd.scrRoot[:0]
	for _, id := range ids {
		if nd.i2.Add(nd.outbox.Index.Of(id)) {
			if id > nd.i2max {
				nd.i2max = id
			}
			fresh = append(fresh, id)
		}
	}
	if len(fresh) > 0 && tr != nil && tr.isRoot {
		nd.relayDownX2(ctx, tr, fresh)
	}
	nd.scrRoot = fresh[:0]
}

// relayDownX2 floods I2 id fragments down a tree, records them for
// late-arriving children, and — when this node is itself a proxy of the
// origin — stores them (triggering I3 pushes on every proxied tree).
func (nd *node) relayDownX2(ctx *sim.Context, tr *tree, ids []protocol.ID) {
	fresh := nd.scrRelay[:0]
	for _, id := range ids {
		if tr.downX2.Add(nd.outbox.Index.Of(id)) {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		nd.scrRelay = fresh
		return
	}
	for _, port := range tr.children {
		nd.outbox.PushDown(port, tr.h, tr.phase, protocol.DownX2, fresh)
	}
	if tr.proxyCount > 0 {
		nd.storeI2(ctx, tr, fresh)
	}
	nd.scrRelay = fresh[:0]
}

// storeI2 adds ids to the proxy-role storage for tr's origin and pushes the
// new ids up every alive proxied tree as I3 data (exchange round 3,
// realized incrementally).
func (nd *node) storeI2(ctx *sim.Context, tr *tree, ids []protocol.ID) {
	fresh := nd.scrStore[:0]
	for _, id := range ids {
		if tr.storedI2.Add(nd.outbox.Index.Of(id)) {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		nd.scrStore = fresh
		return
	}
	round := ctx.Round()
	for _, otr := range nd.treev {
		if otr.proxyCount == 0 || !nd.alive(otr, round) {
			continue
		}
		nd.pushUpX3(otr, fresh)
	}
	nd.scrStore = fresh[:0]
}

func (nd *node) onUp(ctx *sim.Context, m *protocol.UpMsg) {
	tr := nd.tree(m.Origin)
	if tr == nil || tr.phase != m.Phase {
		nd.staleDrops++
		return
	}
	switch m.Stage {
	case protocol.UpX1:
		nd.pushUpX1(ctx, tr, m.IDs, m.DDelta, m.PDelta)
	case protocol.UpX3:
		nd.pushUpX3(tr, m.IDs)
	case protocol.UpWinner:
		var winID protocol.ID
		if len(m.IDs) > 0 {
			winID = m.IDs[0]
		}
		nd.noteWin(ctx, winID)
		if tr.isRoot {
			nd.rootWinnerReceipt(ctx, winID)
			return
		}
		nd.outbox.PushUp(tr.parentPort, tr.h, tr.phase, protocol.UpWinner, m.IDs, 0, 0)
	default:
		nd.staleDrops++
	}
}

// rootWinnerReceipt implements Algorithm 2 line 7: the first time a
// contender receives a winner message it forwards it to all its proxies.
func (nd *node) rootWinnerReceipt(ctx *sim.Context, winID protocol.ID) {
	if nd.winRootDone || winID == 0 {
		return
	}
	nd.winRootDone = true
	tr := nd.tree(nd.id)
	if tr == nil || !tr.isRoot {
		return
	}
	nd.floodWinnerDown(tr, winID)
}

func (nd *node) floodWinnerDown(tr *tree, winID protocol.ID) {
	if tr.winnerDown {
		return
	}
	tr.winnerDown = true
	tr.winnerID = winID
	for _, port := range tr.children {
		nd.scrOne[0] = winID
		nd.outbox.PushDown(port, tr.h, tr.phase, protocol.DownWinner, nd.scrOne[:1])
	}
}

func (nd *node) onDown(ctx *sim.Context, m *protocol.DownMsg) {
	tr := nd.tree(m.Origin)
	if tr == nil || tr.phase != m.Phase {
		nd.staleDrops++
		return
	}
	switch m.Op {
	case protocol.DownX2:
		nd.relayDownX2(ctx, tr, m.IDs)
	case protocol.DownFinal:
		tr.final = true
		if !tr.finalDown {
			tr.finalDown = true
			for _, port := range tr.children {
				nd.outbox.PushDown(port, tr.h, tr.phase, protocol.DownFinal, nil)
			}
		}
	case protocol.DownWinner:
		var winID protocol.ID
		if len(m.IDs) > 0 {
			winID = m.IDs[0]
		}
		nd.noteWin(ctx, winID)
		nd.floodWinnerDown(tr, winID)
		nd.proxyWinnerReceipt(ctx, winID)
	default:
		nd.staleDrops++
	}
}

// proxyWinnerReceipt implements Algorithm 2 line 6: the first time a proxy
// receives a winner message it relays it to all contenders it proxies for.
func (nd *node) proxyWinnerReceipt(ctx *sim.Context, winID protocol.ID) {
	if nd.winProxyDone || winID == 0 {
		return
	}
	round := ctx.Round()
	isProxy := false
	for _, tr := range nd.treev {
		if tr.proxyCount > 0 && nd.alive(tr, round) {
			isProxy = true
			break
		}
	}
	if !isProxy {
		return
	}
	nd.winProxyDone = true
	for _, tr := range nd.treev {
		if tr.proxyCount == 0 || !nd.alive(tr, round) {
			continue
		}
		if tr.isRoot {
			nd.rootWinnerReceipt(ctx, winID)
			continue
		}
		nd.scrOne[0] = winID
		nd.outbox.PushUp(tr.parentPort, tr.h, tr.phase, protocol.UpWinner, nd.scrOne[:1], 0, 0)
	}
}

// stepTokens advances resting walk tokens by one lazy step, recording tree
// children for forwarded batches and registering completions as proxies.
func (nd *node) stepTokens(ctx *sim.Context) {
	if nd.holder.Empty() {
		return
	}
	nd.holder.Step(ctx.Degree(), ctx.Rand(),
		func(port int, origin protocol.ID, phase, remaining, count int) {
			tr := nd.tree(origin)
			if tr == nil || tr.phase != phase {
				nd.staleDrops++
				return
			}
			nd.noteChild(tr, port)
			nd.outbox.PushToken(port, tr.h, phase, remaining, count)
		},
		func(origin protocol.ID, phase, count int) {
			tr := nd.tree(origin)
			if tr == nil || tr.phase != phase {
				nd.staleDrops++
				return
			}
			nd.registerProxy(ctx, origin, tr, count)
		})
}

// noteChild records a downcast child and replicates the down-flood prefix
// (I2 ids, FINAL, winner) that the new child would otherwise miss.
func (nd *node) noteChild(tr *tree, port int) {
	if !tr.addChild(port) {
		return
	}
	if ids := tr.downX2.AppendIDs(nd.scrChild[:0], &nd.outbox.Index); len(ids) > 0 {
		slices.Sort(ids)
		nd.outbox.PushDown(port, tr.h, tr.phase, protocol.DownX2, ids)
		nd.scrChild = ids[:0]
	}
	if tr.finalDown {
		nd.outbox.PushDown(port, tr.h, tr.phase, protocol.DownFinal, nil)
	}
	if tr.winnerDown {
		nd.scrOne[0] = tr.winnerID
		nd.outbox.PushDown(port, tr.h, tr.phase, protocol.DownWinner, nd.scrOne[:1])
	}
}

// boundaryActions runs the contender's scheduled transitions: phase starts
// and the stop/winner decision at start + 4T.
func (nd *node) boundaryActions(ctx *sim.Context) {
	if !nd.contender || !nd.active {
		return
	}
	round := ctx.Round()
	if nd.awaitStart >= 0 && round >= nd.awaitStart {
		next := nd.phase + 1
		nd.beginPhase(ctx, next)
		return
	}
	if nd.phase >= 0 && round == nd.rt.sched.decides[nd.phase] {
		nd.evaluate(ctx)
	}
}

// evaluate is Algorithm 2 lines 4-5 and 8-9: test the Intersection and
// Distinctness properties; stop and possibly elect, or double the guess.
func (nd *node) evaluate(ctx *sim.Context) {
	adjacency := nd.i2.Len() - 1 // i2 includes the own id
	interOK := adjacency >= nd.rt.interT
	distinctOK := nd.dSum >= nd.rt.distT || nd.rt.cfg.DisableDistinctness
	unconditional := nd.rt.cfg.FixedWalkLen > 0
	if unconditional || (interOK && distinctOK) {
		nd.stopped = true
		nd.active = false
		nd.stopRound = ctx.Round()
		nd.sendFinalOwnTree(ctx)
		if nd.winSeen == 0 && nd.idIsMax() {
			nd.leader = true
			nd.leadRound = ctx.Round()
			nd.winSeen = nd.id
			if tr := nd.tree(nd.id); tr != nil && tr.isRoot {
				nd.floodWinnerDown(tr, nd.id)
			}
			// The leader may itself proxy other contenders; notify them
			// directly (it has "received" its own winner message).
			nd.proxyWinnerReceipt(ctx, nd.id)
		}
		return
	}
	next := nd.phase + 1
	if next >= nd.rt.sched.numPhases() {
		nd.failed = true
		nd.active = false
		return
	}
	nd.awaitStart = nd.rt.sched.starts[next]
	ctx.WakeAt(nd.awaitStart)
}

// idIsMax reports whether this contender's id is the maximum over its
// two-hop id neighborhood I4 (we also fold in I2, a subset of the eventual
// I4, which only strengthens the check). Only the maxima matter, so both
// sets are tracked as running maxima.
func (nd *node) idIsMax() bool {
	return nd.i4max <= nd.id && nd.i2max <= nd.id
}
