// Package fault is a seeded, deterministic fault-injection layer for
// the simulated memory hierarchy. It wraps existing components behind
// their current interfaces:
//
//   - a NoC shim that perturbs delivery latency, reorders same-cycle
//     arrivals across source/destination pairs (point-to-point FIFO
//     order is preserved, as virtual-channel networks guarantee), and
//     transiently rejects injection to amplify backpressure;
//   - a DRAM shim that adds latency spikes to read fills;
//   - a timestamp-stress mode that starts G-TSC counters near
//     wraparound (and shortens TC leases) so rollover/renewal paths
//     run constantly instead of once per billion cycles.
//
// Every perturbation is drawn from xorshift64* streams seeded by
// Config.Seed — one main stream for the draws made in hierarchy tick
// order, plus one stream per L1 injection lane (see LaneReject) — so a
// failing schedule replays exactly from its seed.
package fault

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// Config is one fault-injection plan. The zero value disables
// injection entirely.
type Config struct {
	// Seed selects the deterministic perturbation schedule. A plan
	// with Seed 0 and no knobs set is disabled.
	Seed int64

	// DelayProb is the chance (0..1) an arriving NoC message is held
	// for an extra 1..DelayMax cycles.
	DelayProb float64
	DelayMax  uint64
	// Reorder shuffles the delivery order of same-cycle arrivals
	// across (src,dst) pairs.
	Reorder bool
	// RejectProb is the chance (0..1) a NoC injection attempt is
	// transiently rejected even when the port has room, forcing the
	// controller down its retry/backpressure path.
	RejectProb float64

	// DRAMSpikeProb is the chance a DRAM read fill is delayed by an
	// extra 1..DRAMSpikeMax cycles.
	DRAMSpikeProb float64
	DRAMSpikeMax  uint64

	// TSStress starts G-TSC warp/memory timestamps near the
	// wraparound point so the §V-D overflow reset fires within the
	// first few accesses of every kernel, and shortens TC leases so
	// expiry/renewal churn is constant.
	TSStress bool

	// RolloverEvery forces a §V-D chip-wide timestamp rollover roughly
	// every N cycles during kernel execution (0 = never), regardless of
	// how far the counters are from natural overflow. Each firing point
	// is drawn as Every±Jitter from the seeded stream, so a plan
	// replays exactly from its seed. Intervals are floored at
	// rolloverFloor cycles: a reset storm faster than the hierarchy's
	// round-trip time livelocks L1 refetches instead of testing the
	// epoch-crossing paths. Only G-TSC honors the schedule; other
	// protocols ignore it.
	RolloverEvery  uint64
	RolloverJitter uint64
}

// rolloverFloor is the minimum spacing between forced rollovers; see
// Config.RolloverEvery.
const rolloverFloor = 500

// Enabled reports whether the plan perturbs anything.
func (c Config) Enabled() bool {
	return c.DelayProb > 0 || c.Reorder || c.RejectProb > 0 ||
		c.DRAMSpikeProb > 0 || c.TSStress || c.RolloverEvery > 0
}

// String summarizes the plan for diagnostics.
func (c Config) String() string {
	if !c.Enabled() {
		return "disabled"
	}
	return fmt.Sprintf("seed=%d delay=%.2f/%d reorder=%v reject=%.2f dramspike=%.2f/%d tsstress=%v rollover=%d±%d",
		c.Seed, c.DelayProb, c.DelayMax, c.Reorder, c.RejectProb,
		c.DRAMSpikeProb, c.DRAMSpikeMax, c.TSStress,
		c.RolloverEvery, c.RolloverJitter)
}

// Chaos returns a moderately hostile all-knobs plan for the given
// seed: delivery jitter, cross-pair reordering, transient injection
// rejects, DRAM spikes and timestamp stress.
func Chaos(seed int64) Config {
	return Config{
		Seed:          seed,
		DelayProb:     0.25,
		DelayMax:      24,
		Reorder:       true,
		RejectProb:    0.10,
		DRAMSpikeProb: 0.20,
		DRAMSpikeMax:  300,
		TSStress:      true,
	}
}

// ChaosRollover is Chaos plus a forced-rollover schedule: on top of
// the near-wraparound start (TSStress), a §V-D reset is forced roughly
// every 2000±1500 cycles, so epochs churn continuously for the whole
// kernel instead of only when a counter overflows.
func ChaosRollover(seed int64) Config {
	c := Chaos(seed)
	c.RolloverEvery = 2000
	c.RolloverJitter = 1500
	return c
}

// rng is the same xorshift64* generator the workload package uses, so
// fault schedules are reproducible without math/rand.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// chance returns true with probability p, consuming one draw.
func (r *rng) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	// 53-bit uniform in [0,1).
	return float64(r.next()>>11)/(1<<53) < p
}

// uint64n returns a value in [0, n).
func (r *rng) uint64n(n uint64) uint64 { return r.next() % n }

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Injector owns the perturbation stream of one simulated machine.
// Shims whose draws happen in serial hierarchy phases (delay shims,
// DRAM spikes, rollovers, L2->L1 rejects) share the injector's main
// RNG; the L1->L2 injection-reject path draws from per-lane streams
// instead (see LaneReject), so the draw order is fixed by each lane's
// own program order.
type Injector struct {
	cfg   Config
	rng   *rng
	lanes []*rng // per-lane streams handed out by LaneReject, in lane order

	// nextRollover is the cycle at which the next forced §V-D reset
	// fires (0 = schedule not armed). Re-armed per kernel by
	// ArmRollover so every kernel sees the plan from its own start.
	nextRollover uint64
}

// NewInjector builds the injector for a plan.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: newRNG(cfg.Seed)}
}

// Config returns the plan this injector executes.
func (in *Injector) Config() Config { return in.cfg }

// WrapSender interposes transient injection rejection on a NoC
// injection path. A rejected TrySend is indistinguishable from a full
// port, so controllers exercise their retry/backpressure machinery.
func (in *Injector) WrapSender(s coherence.Sender) coherence.Sender {
	if in.cfg.RejectProb <= 0 {
		return s
	}
	return coherence.SenderFunc(func(msg *mem.Msg) bool {
		if in.rng.chance(in.cfg.RejectProb) {
			return false
		}
		return s.TrySend(msg)
	})
}

// LaneReject returns the transient-rejection draw for one injection
// lane (an L1's private path into the NoC). Each lane owns its own
// xorshift64* stream, derived deterministically from the plan seed and
// the lane index, so a lane's draw sequence depends only on how many
// sends that lane has attempted — not on how SM ticks interleave with
// other lanes. Returns nil when the plan never rejects, so hot paths can skip the
// draw entirely.
func (in *Injector) LaneReject(lane int) func() bool {
	if in.cfg.RejectProb <= 0 {
		return nil
	}
	for len(in.lanes) <= lane {
		// SplitMix64-style mix of (seed, lane) so adjacent lanes get
		// well-separated streams even for small seeds.
		z := uint64(in.cfg.Seed) + 0x9E3779B97F4A7C15*uint64(len(in.lanes)+1)
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		if z == 0 {
			z = 0x9E3779B97F4A7C15
		}
		in.lanes = append(in.lanes, &rng{s: z})
	}
	r := in.lanes[lane]
	p := in.cfg.RejectProb
	return func() bool { return r.chance(p) }
}

// ArmRollover (re)seeds the forced-rollover schedule for a kernel
// whose run phase starts at cycle now. A no-op for plans without
// RolloverEvery. Draws come from the injector's single stream in
// deterministic simulation order, so the schedule replays from the
// seed like every other perturbation.
func (in *Injector) ArmRollover(now uint64) {
	if in.cfg.RolloverEvery == 0 {
		return
	}
	in.nextRollover = now + in.drawRolloverGap()
}

// RolloverDue reports whether a forced rollover fires at cycle now,
// advancing the schedule when it does. The caller (the cycle engine)
// is responsible for actually triggering the reset.
func (in *Injector) RolloverDue(now uint64) bool {
	if in.nextRollover == 0 || now < in.nextRollover {
		return false
	}
	in.nextRollover = now + in.drawRolloverGap()
	return true
}

// NextRollover exposes the armed schedule point (0 = unarmed), for
// state digests: machines with equal state must agree on when the next
// forced reset lands.
func (in *Injector) NextRollover() uint64 { return in.nextRollover }

// drawRolloverGap draws one Every±Jitter interval, floored so resets
// cannot outrun the hierarchy's round-trip time.
func (in *Injector) drawRolloverGap() uint64 {
	gap := int64(in.cfg.RolloverEvery)
	if j := in.cfg.RolloverJitter; j > 0 {
		gap += int64(in.rng.uint64n(2*j+1)) - int64(j)
	}
	if gap < rolloverFloor {
		gap = rolloverFloor
	}
	return uint64(gap)
}

// RNGState exposes the injector's current RNG position — the main
// stream folded with every per-lane stream — for state digests: two
// machines with equal state must also agree on every future
// perturbation draw on every path.
func (in *Injector) RNGState() uint64 {
	s := in.rng.s
	for i, l := range in.lanes {
		s ^= l.s * (0x9E3779B97F4A7C15 ^ uint64(i+1))
	}
	return s
}
