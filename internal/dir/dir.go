// Package dir implements a conventional invalidation-based directory
// coherence protocol (MESI-style) adapted to the GPU hierarchy — the
// class of protocol Section II-C of the paper argues is ill-suited to
// GPUs. It exists so that argument can be *measured* on this
// simulator rather than assumed: the §II-C characterization experiment
// compares its invalidation/recall traffic, storage overhead and
// performance against G-TSC and TC.
//
// Design (standard full-map directory, simplified where the paper's
// complaints do not depend on the detail):
//
//   - L1s are write-back, write-allocate, with MESI-style states:
//     a load miss sends GetS (BusRd) and is granted E when no other
//     copy exists, S otherwise; a store needs M, obtained by GetM
//     (BusGetM); E upgrades to M silently.
//   - The L2 keeps a full-map directory per line: a sharer bit per SM
//     plus an exclusive owner. GetM invalidates every other copy and
//     waits for acknowledgments before granting — the write-latency
//     and traffic cost invalidation protocols pay on GPUs.
//   - The L2 is inclusive: evicting a line with live L1 copies first
//     recalls them (the §II-C "recall traffic").
//   - Dirty L1 evictions write back (BusWB); an invalidation that
//     catches a dirty copy acknowledges with data. A race between a
//     spontaneous writeback and an invalidation is resolved with a
//     wb-in-flight flag on the acknowledgment, after which the
//     directory waits for the writeback itself.
//   - Atomics recall every copy and execute at the L2.
//
// Storage: a full-map directory costs (NumSMs + owner id) bits per L2
// line, growing linearly with SM count — versus G-TSC's two 16-bit
// timestamps per line regardless of SM count. The characterization
// experiment reports both.
package dir

// Grant state codes carried in BusFill.WTS.
const (
	grantS = 1
	grantE = 2
	grantM = 3
)

// Invalidation subtypes carried in BusInv.WTS.
const (
	invInvalidate = 0 // drop the copy
	invDowngrade  = 1 // keep a shared copy, surrender exclusivity
)
