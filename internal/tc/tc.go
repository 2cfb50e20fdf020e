// Package tc implements Temporal Coherence (Singh et al., HPCA 2013),
// the time-based GPU coherence protocol G-TSC is evaluated against
// (Section II-D of the G-TSC paper).
//
// TC drives coherence with globally synchronized counters — in this
// simulator, the global cycle count, which is exactly the idealized
// synchronized clock the protocol assumes. Each L1 block holds a lease
// expiry in cycles and self-invalidates when the clock passes it; the
// L2 tracks the maximum lease granted per block.
//
// Two variants are provided:
//
//   - TC-Strong: a write to a block with an unexpired lease stalls at
//     the L2 until every private copy has self-invalidated; requests
//     arriving for the block meanwhile queue behind the write. Used
//     for sequential consistency runs.
//   - TC-Weak: writes complete immediately and the acknowledgment
//     carries the Global Write Completion Time (GWCT, the lease expiry
//     at write time); fences stall the warp until the clock passes the
//     maximum GWCT of its prior writes. Used for release consistency.
//
// TC's L2 must be inclusive (§II-D2): victims with unexpired leases
// cannot be evicted, so fills may stall on replacement — the
// lease-induced contention the paper measures.
package tc

import (
	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// Config holds TC protocol parameters.
type Config struct {
	// Lease is the lease length in cycles granted to L1 readers
	// (the TC paper's fixed-lease configuration; default 400).
	Lease uint64
	// Weak selects TC-Weak (GWCT-based write completion); false is
	// TC-Strong (writes stall for lease expiry).
	Weak bool
}

// DefaultConfig returns the baseline TC-Strong configuration.
func DefaultConfig() Config { return Config{Lease: 400} }

func (c *Config) fillDefaults() {
	if c.Lease == 0 {
		c.Lease = 400
	}
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// lease is a TC line's metadata at either level, in global cycles: at
// an L1 the self-invalidation deadline, at the L2 the latest expiry
// granted to any L1.
type lease struct {
	expiry uint64
}

// forEachLease reports every line's lease as the physical-time
// interval (0, expiry).
func forEachLease(a *cache.Array[lease], fn func(b mem.BlockAddr, wts, rts uint64)) {
	a.ForEach(func(c *cache.Line[lease]) { fn(c.Addr, 0, c.Meta.expiry) })
}

// nextExpiry is the earliest lease expiry in a after now.
func nextExpiry(a *cache.Array[lease], now uint64) (at uint64, ok bool) {
	a.ForEach(func(c *cache.Line[lease]) {
		if e := c.Meta.expiry; e > now && (!ok || e < at) {
			at, ok = e, true
		}
	})
	return at, ok
}
