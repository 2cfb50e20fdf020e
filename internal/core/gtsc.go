// Package core implements G-TSC, the paper's contribution: a
// timestamp-ordering cache coherence protocol for GPUs built on the
// ideas of Tardis (Yu & Devadas, PACT'15) and adapted to the GPU's
// massive thread parallelism (Sections III–V of the paper).
//
// Every cache block carries a write timestamp (wts) and read timestamp
// (rts); the half-open logical interval [wts, rts] is the block's
// lease, during which its data is valid. Each warp carries warp_ts,
// the timestamp of its last memory operation. Coherence transactions
// execute in logical time: a store can be ordered "in the future"
// (wts' = max(rts+1, warp_ts+1)) instead of stalling for lease expiry
// as Temporal Coherence must, which eliminates TC's lease-induced
// stalls, permits a non-inclusive L2, and needs no synchronized
// global clocks.
//
// GPU-specific mechanisms implemented here, mirroring Section V:
//
//   - Update visibility (V-A): a stored-to L1 line is locked until the
//     store's BusWrAck returns; intervening readers wait in the MSHR
//     (option 1), or read a preserved old copy (option 2, configurable).
//   - Request combining (V-B): only the first reader of a block sends a
//     BusRd; merged readers whose warp_ts exceeds the filled lease
//     trigger dataless renewals (forward-all is available for ablation).
//   - Non-inclusive L2 (V-C): evictions fold the victim's rts into a
//     single per-bank mem_ts; later fills/stores order after it.
//   - Timestamp overflow (V-D): width-limited timestamps (16-bit by
//     default) with the paper's L2-driven epoch reset protocol.
package core

import "github.com/gtsc-sim/gtsc/internal/diag"

// Config holds G-TSC protocol parameters.
type Config struct {
	// Lease is the logical lease length added to a reader's warp_ts
	// when granting or renewing read access (paper sweeps 8–20,
	// default 10; Fig 14 shows insensitivity in that range).
	Lease uint64
	// TSBits is the timestamp width; timestamps wrapping past
	// (1<<TSBits)-1 trigger the overflow reset protocol (default 16).
	TSBits int
	// ForwardAll, when true, forwards every reader's BusRd to L2
	// instead of combining them in the MSHR — the Section V-B
	// ablation (raises traffic 12–35%).
	ForwardAll bool
	// KeepOldCopy selects update-visibility option 2 (Section V-A):
	// a stored-to line preserves its old data and lease so readers
	// whose warp_ts falls in the old lease proceed without waiting.
	// Default (false) is option 1: readers wait for the BusWrAck.
	KeepOldCopy bool
	// AdaptiveLease enables per-block lease prediction in the spirit
	// of Tardis 2.0's lease policies (an extension beyond the paper):
	// a block renewed without an intervening write doubles its lease
	// (up to MaxLease); a written block halves it (down to Lease).
	// Read-mostly blocks thus survive the warp-timestamp advances
	// that stores cause, cutting renewal traffic.
	AdaptiveLease bool
	// MaxLease caps adaptive leases (default 8*Lease).
	MaxLease uint64
	// InitTS overrides the power-on / kernel-boundary value of warp_ts
	// and mem_ts (default initialTS = 1). The fault package's
	// timestamp-stress mode sets it near tsMax so the §V-D overflow
	// reset fires within the first few accesses of every kernel;
	// overflow resets themselves always return to initialTS.
	InitTS uint64
	// EpochBits is the wire width of the timestamp-epoch tag carried in
	// every message (default 64 = effectively unbounded). Unlike data
	// timestamps, the epoch counter is never reset, so a narrow tag
	// wraps; receivers decode tags against a one-sided bound they each
	// hold — an L1 against its epoch at the oldest outstanding
	// request's send, a bank against its own epoch as a ceiling (see
	// tswrap.go). The decode stays exact while no component sleeps
	// through 2^EpochBits or more resets between exchanges with the
	// banks; the exhaustive model checker drives EpochBits=2 through
	// enough resets to wrap the tag and relies on exactly this window.
	EpochBits int
}

// DefaultConfig returns the configuration the paper evaluates.
func DefaultConfig() Config { return Config{Lease: 10, TSBits: 16} }

func (c *Config) fillDefaults() {
	if c.Lease == 0 {
		c.Lease = 10
	}
	if c.TSBits == 0 {
		c.TSBits = 16
	}
	if c.EpochBits == 0 {
		c.EpochBits = 64
	}
	if c.MaxLease == 0 {
		c.MaxLease = 8 * c.Lease
	}
	if c.MaxLease < c.Lease {
		c.MaxLease = c.Lease
	}
	// The overflow reset must leave room for at least one full
	// store+lease computation in the fresh epoch, or resets cannot make
	// progress (worst post-reset value is 2*leaseCeil + 3). Validate
	// reports the misconfiguration as a typed error; callers that skip
	// it (constructing controllers directly) get the lease clamped to
	// the largest workable value instead of a wedged machine.
	if c.TSBits < minTSBits {
		c.TSBits = minTSBits
	}
	if limit := (c.tsMax() - 3) / 2; c.Lease > limit || c.MaxLease > limit {
		if c.Lease > limit {
			c.Lease = limit
		}
		if c.MaxLease > limit {
			c.MaxLease = limit
		}
	}
	// A stressed start value must still leave room for one full
	// store+lease computation before the reset protocol engages.
	if limit := c.tsMax() - 2*c.leaseCeil() - 3; c.InitTS > limit {
		c.InitTS = limit
	}
}

// minTSBits is the narrowest workable timestamp width: even a lease of
// 1 needs 2*1+3 = 5 distinct values after a reset, which 3 bits (tsMax
// 7) is the first width to provide.
const minTSBits = 3

// Validate reports lease/TSBits combinations the protocol cannot make
// forward progress under, as a typed *diag.ConfigError (no panics; the
// simulator surfaces it like any other run failure). The zero fields
// of an unvalidated config are defaulted first, exactly as the
// controller constructors default them.
func (c Config) Validate() error {
	if c.TSBits < 0 || c.TSBits > 64 {
		return diag.ConfigErrf("gtsc", "TSBits", "timestamp width %d outside 1..64", c.TSBits)
	}
	if c.TSBits != 0 && c.TSBits < minTSBits {
		return diag.ConfigErrf("gtsc", "TSBits",
			"timestamp width %d too narrow: the §V-D reset protocol needs at least %d bits", c.TSBits, minTSBits)
	}
	if c.EpochBits < 0 || c.EpochBits > 64 {
		return diag.ConfigErrf("gtsc", "EpochBits", "epoch tag width %d outside 1..64", c.EpochBits)
	}
	if c.EpochBits == 1 {
		// A 1-bit ring tolerates zero lag: one quiet reset anywhere
		// and the bound-decode window is already exhausted.
		return diag.ConfigErrf("gtsc", "EpochBits",
			"epoch tag width 1 cannot order resets; need at least 2 bits")
	}
	d := c
	if d.Lease == 0 {
		d.Lease = 10
	}
	if d.TSBits == 0 {
		d.TSBits = 16
	}
	if d.MaxLease == 0 {
		d.MaxLease = 8 * d.Lease
	}
	if d.MaxLease < d.Lease {
		d.MaxLease = d.Lease
	}
	if worst := d.leaseCeil(); 2*worst+3 > d.tsMax() {
		return diag.ConfigErrf("gtsc", "Lease/TSBits",
			"lease %d too large for %d-bit timestamps: a post-reset store+lease reaches %d but tsMax is %d, so the overflow reset cannot make progress",
			worst, d.TSBits, 2*worst+3, d.tsMax())
	}
	return nil
}

// startTS is the power-on / kernel-boundary timestamp value.
func (c *Config) startTS() uint64 {
	if c.InitTS == 0 {
		return initialTS
	}
	return c.InitTS
}

// leaseCeil is the largest lease the configuration can grant.
func (c *Config) leaseCeil() uint64 {
	if c.AdaptiveLease {
		return c.MaxLease
	}
	return c.Lease
}

// tsMax returns the largest representable timestamp.
func (c *Config) tsMax() uint64 { return (uint64(1) << uint(c.TSBits)) - 1 }

// initialTS is the power-on value of warp_ts and mem_ts (paper §III-B:
// "All mem_ts and warp_ts are initially set to 1").
const initialTS = 1

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
