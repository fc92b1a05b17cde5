package systematic

// Explorer is the reusable exploration context campaigns hold across
// cells: one value drives many kernels through ExploreDPOR and exposes
// the last call's statistics. ExploreDPOR resets its stats field on
// entry — per-cell isolation is part of the contract, pinned by
// TestExplorerStatsIsolation. (The engine-driven
// harness used to observe stats accumulating across cells when an
// explorer value was reused; the reset is the fix.)
//
// An Explorer is not safe for concurrent use; campaigns that parallelize
// across cells give each worker its own.
type Explorer struct {
	// DPOR holds the statistics of the most recent ExploreDPOR call.
	DPOR DPORStats
	// Wakes switches ExploreDPOR to targeted backtracking: children are
	// seeded as wake-at-backtrack-point placements (sim.Options.WakeAt)
	// that dispatch the racing peer directly instead of relying on FIFO
	// rotation. Off by default — the plain-yield space is the one the
	// equivalence battery proves bit-identical to Explore.
	Wakes bool
}

// NewExplorer returns a fresh exploration context.
func NewExplorer() *Explorer { return &Explorer{} }
