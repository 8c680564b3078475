package core

import (
	"sort"

	"wcle/internal/protocol"
)

// tree is the per-(node, origin) view of one contender's walk tree for its
// current (or final) phase: the designated convergecast parent (the port of
// first token arrival; first-arrival times strictly decrease toward the
// origin, so these edges form a tree), the downcast children (every port
// tokens were forwarded to), the local proxy registration count, and the
// relay bookkeeping that implements filtering and late-child replication.
type tree struct {
	h          protocol.Handle // merge-slot handle in the node's outbox
	phase      int
	parentPort int // -1 at the origin (root)
	isRoot     bool
	final      bool // latched by the origin's FINAL flood
	proxyCount int  // walks of this origin that ended here, this phase

	children []int // sorted child ports

	// storedI2 is the proxy-role storage of the origin's I2 fragments
	// ("the I2 sets received", Algorithm 2 round 3). It persists across
	// phases. Like downX2, it is a bitset over the node's id Index.
	storedI2 protocol.IDSet

	// downX2 records ids relayed down this tree this phase, so that
	// children appearing later (walks still in flight) receive the full
	// prefix. finalDown/winnerDown replicate control floods the same way.
	downX2     protocol.IDSet
	finalDown  bool
	winnerDown bool
	winnerID   protocol.ID
}

func newTree(phase, parentPort int, isRoot bool) *tree {
	return &tree{
		phase:      phase,
		parentPort: parentPort,
		isRoot:     isRoot,
	}
}

// resetForPhase reuses the tree for a newer phase of the same origin
// (guess-and-double: the contender's previous proxies are discarded).
// storedI2 persists, matching the paper's proxies "storing" I2 sets.
func (tr *tree) resetForPhase(phase, parentPort int, isRoot bool) {
	tr.phase = phase
	tr.parentPort = parentPort
	tr.isRoot = isRoot
	tr.final = false
	tr.proxyCount = 0
	tr.children = tr.children[:0]
	tr.downX2.Reset()
	tr.finalDown = false
	tr.winnerDown = false
	tr.winnerID = 0
}

// addChild registers a downcast child port, keeping the list sorted.
// Returns false if the port was already a child.
func (tr *tree) addChild(port int) bool {
	i := sort.SearchInts(tr.children, port)
	if i < len(tr.children) && tr.children[i] == port {
		return false
	}
	tr.children = append(tr.children, 0)
	copy(tr.children[i+1:], tr.children[i:])
	tr.children[i] = port
	return true
}

// dOf maps a proxy registration count to its distinctness contribution:
// a proxy is distinct iff exactly one walk of the origin ended there.
func dOf(count int) int {
	if count == 1 {
		return 1
	}
	return 0
}
