package workload

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// Microbenchmarks: small kernels isolating one memory-system behaviour
// each, used by the characterization experiment and the protocol
// stress tests. They are not part of the paper's twelve-benchmark
// suite (Micro() keeps them in their own registry).
//
//	HIST  — atomic histogram (global atomics, heavy same-block conflicts)
//	FS    — false sharing (distinct words of one block across all SMs)
//	BCAST — read-only broadcast (renewal/lease efficiency)
//	STRM  — write-once streaming (write-no-allocate path, DRAM bandwidth)
//	PING  — cross-SM max-reduction ping-pong (atomics + fences)
//	PIPE  — two-kernel producer/consumer (kernel-boundary handoff)

// Micro returns the microbenchmark registry.
func Micro() []*Workload {
	return []*Workload{HIST(), FS(), BCAST(), STRM(), PING(), PIPE()}
}

// MicroByName looks a microbenchmark up by name.
func MicroByName(name string) (*Workload, bool) {
	for _, w := range Micro() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// HIST builds a histogram with atomic adds: every thread classifies
// items into a small bucket array shared by the whole grid. Exact
// counts are verified — atomics serialize at the L2, so this is
// correct under every configuration, including the non-coherent L1.
func HIST() *Workload {
	return &Workload{
		Name:        "HIST",
		Description: "atomic histogram over shared buckets (global atomics, hot blocks)",
		Build: func(scale int) *Instance {
			const buckets = 64
			itemsPerThread := 6 * scale
			ctas, warps := ctaScale(scale), 2
			total := ctas * warps * gpu.WarpWidth

			lay := newLayout(0x2000000)
			bucketBase := lay.array(buckets)

			want := make([]uint32, buckets)
			item := func(gtid, i int) int { return (gtid*131 + i*17) % buckets }
			for t := 0; t < total; t++ {
				for i := 0; i < itemsPerThread; i++ {
					want[item(t, i)]++
				}
			}

			kernel := &gpu.Kernel{
				Name: "HIST", CTAs: ctas, WarpsPerCTA: warps, Regs: 2,
				ProgramFor: loop(itemsPerThread, func(i int) []*gpu.Instr {
					return []*gpu.Instr{
						gpu.Atomic(mem.AtomAdd, 0, always(func(t *gpu.Thread) mem.Addr {
							return wordAddr(bucketBase, item(t.GTID, i))
						}), func(t *gpu.Thread) uint32 { return 1 }),
						gpu.Comp(2),
					}
				}),
			}
			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("HIST buckets", readBack(read, bucketBase, buckets), want)
				},
			}
		},
	}
}

// FS is deliberate false sharing: every thread read-modify-writes its
// own word, but 32 threads from different SMs share each block. Under
// G-TSC this hammers the update-visibility and stale-base-store paths.
func FS() *Workload {
	return &Workload{
		Name:           "FS",
		Description:    "false sharing: per-thread words interleaved across SMs in shared blocks",
		NeedsCoherence: true,
		Build: func(scale int) *Instance {
			iters := 6 * scale
			ctas, warps := ctaScale(scale), 1
			total := ctas * warps * gpu.WarpWidth

			lay := newLayout(0x2400000)
			base := lay.array(total)

			// Interleave so each block's words belong to 32 different
			// CTAs (word index = CTA, block index = lane).
			slot := func(gtid int) int {
				cta := gtid / (warps * gpu.WarpWidth)
				lane := gtid % gpu.WarpWidth
				return lane*ctas + cta
			}
			want := make([]uint32, total)
			for t := 0; t < total; t++ {
				want[slot(t)] = uint32(iters)
			}

			own := always(func(t *gpu.Thread) mem.Addr {
				return wordAddr(base, slot(t.GTID))
			})
			kernel := &gpu.Kernel{
				Name: "FS", CTAs: ctas, WarpsPerCTA: warps, Regs: 2,
				NeedsCoherence: true,
				ProgramFor: loop(iters, func(int) []*gpu.Instr {
					return []*gpu.Instr{
						gpu.Load(0, own),
						gpu.ALU(func(t *gpu.Thread) { t.Regs[0]++ }, 0),
						gpu.Store(own, func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0),
						gpu.Fence(),
					}
				}),
			}
			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("FS words", readBack(read, base, total), want)
				},
			}
		},
	}
}

// BCAST has every thread re-read the same small read-only table each
// iteration: the best case for leases (one fill, then pure hits or
// dataless renewals).
func BCAST() *Workload {
	return &Workload{
		Name:        "BCAST",
		Description: "read-only broadcast table (lease/renewal efficiency)",
		Build: func(scale int) *Instance {
			const tableWords = 64
			iters := 10 * scale
			ctas, warps := ctaScale(scale), 2
			total := ctas * warps * gpu.WarpWidth

			lay := newLayout(0x2800000)
			tabBase := lay.array(tableWords)
			outBase := lay.array(total)

			r := newRNG(977)
			tab := make([]uint32, tableWords)
			for i := range tab {
				tab[i] = uint32(r.intn(1 << 16))
			}
			want := make([]uint32, total)
			for t := 0; t < total; t++ {
				var acc uint32
				for i := 0; i < iters; i++ {
					acc += tab[(t+i)%tableWords]
				}
				want[t] = acc
			}

			kernel := &gpu.Kernel{
				Name: "BCAST", CTAs: ctas, WarpsPerCTA: warps, Regs: 2,
				Init: func(store *mem.Store) { writeArray(store, tabBase, tab) },
				ProgramFor: loop(iters, func(i int) []*gpu.Instr {
					return []*gpu.Instr{
						gpu.Load(1, always(func(t *gpu.Thread) mem.Addr {
							return wordAddr(tabBase, (t.GTID+i)%tableWords)
						})),
						gpu.ALU(func(t *gpu.Thread) {
							if i == 0 {
								t.Regs[0] = 0
							}
							t.Regs[0] += t.Regs[1]
						}, 0, 1),
					}
				}),
			}
			kernel.ProgramFor = withEpilogue(kernel.ProgramFor,
				gpu.Store(always(func(t *gpu.Thread) mem.Addr {
					return wordAddr(outBase, t.GTID)
				}), func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0))
			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("BCAST sums", readBack(read, outBase, total), want)
				},
			}
		},
	}
}

// STRM is pure write-once streaming: each thread fills a private
// output range and never reads it back — the write-no-allocate path
// and DRAM write bandwidth.
func STRM() *Workload {
	return &Workload{
		Name:        "STRM",
		Description: "write-once streaming output (write-no-allocate, DRAM bandwidth)",
		Build: func(scale int) *Instance {
			wordsPerThread := 8 * scale
			ctas, warps := ctaScale(scale), 2
			total := ctas * warps * gpu.WarpWidth

			lay := newLayout(0x2C00000)
			outBase := lay.array(total * wordsPerThread)

			kernel := &gpu.Kernel{
				Name: "STRM", CTAs: ctas, WarpsPerCTA: warps, Regs: 1,
				ProgramFor: loop(wordsPerThread, func(i int) []*gpu.Instr {
					return []*gpu.Instr{
						gpu.Store(always(func(t *gpu.Thread) mem.Addr {
							return wordAddr(outBase, i*total+t.GTID)
						}), func(t *gpu.Thread) uint32 {
							return uint32(t.GTID*1000 + i)
						}),
					}
				}),
			}
			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					for i := 0; i < wordsPerThread; i++ {
						for t := 0; t < total; t++ {
							got := read(wordAddr(outBase, i*total+t))
							if want := uint32(t*1000 + i); got != want {
								return fmt.Errorf("STRM[%d,%d]: got %d want %d", i, t, got, want)
							}
						}
					}
					return nil
				},
			}
		},
	}
}

// PING is a cross-SM reduction ping-pong: every warp atomically folds
// its round value into one shared word, fences, and reads it back —
// maximal single-address contention across the whole chip.
func PING() *Workload {
	return &Workload{
		Name:        "PING",
		Description: "whole-chip atomic max ping-pong on one word (worst-case contention)",
		Build: func(scale int) *Instance {
			rounds := 4 * scale
			ctas, warps := ctaScale(scale), 1
			total := ctas * warps * gpu.WarpWidth

			lay := newLayout(0x3000000)
			hot := lay.array(1)
			outBase := lay.array(total)

			// Max over all contributions of all rounds: thread t round r
			// contributes t*8+r.
			var finalMax uint32
			for t := 0; t < total; t++ {
				for r := 0; r < rounds; r++ {
					if v := uint32(t*8 + r); v > finalMax {
						finalMax = v
					}
				}
			}

			kernel := &gpu.Kernel{
				Name: "PING", CTAs: ctas, WarpsPerCTA: warps, Regs: 2,
				NeedsCoherence: true,
				ProgramFor: seq(func() []*gpu.Instr {
					var body []*gpu.Instr
					for r := 0; r < rounds; r++ {
						r := r
						body = append(body,
							gpu.Atomic(mem.AtomMax, 0, always(func(t *gpu.Thread) mem.Addr {
								return wordAddr(hot, 0)
							}), func(t *gpu.Thread) uint32 { return uint32(t.GTID*8 + r) }),
							gpu.Fence(),
						)
					}
					body = append(body, gpu.Store(always(func(t *gpu.Thread) mem.Addr {
						return wordAddr(outBase, t.GTID)
					}), func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0))
					return body
				}),
			}
			return &Instance{
				Kernels: []*gpu.Kernel{kernel},
				Verify: func(read func(mem.Addr) uint32) error {
					if got := read(wordAddr(hot, 0)); got != finalMax {
						return fmt.Errorf("PING hot word: got %d want %d", got, finalMax)
					}
					// Every thread's final observation is some valid
					// intermediate max >= its own last contribution.
					for t := 0; t < total; t++ {
						got := read(wordAddr(outBase, t))
						if got > finalMax {
							return fmt.Errorf("PING out[%d]: %d exceeds final max %d", t, got, finalMax)
						}
						if got < uint32(t*8) {
							return fmt.Errorf("PING out[%d]: %d below own contribution %d", t, got, t*8)
						}
					}
					return nil
				},
			}
		},
	}
}

// PIPE is a two-kernel pipeline: a producer kernel writes a buffer,
// then a consumer kernel (a separate launch, after the L1 flush and
// timestamp reset of the kernel boundary) transforms it. It exercises
// the multi-kernel path: per-kernel flush, timestamp reset, and data
// handoff through the L2.
func PIPE() *Workload {
	return &Workload{
		Name:        "PIPE",
		Description: "two-kernel producer/consumer pipeline (kernel-boundary handoff)",
		Build: func(scale int) *Instance {
			ctas, warps := ctaScale(scale), 1
			total := ctas * warps * gpu.WarpWidth

			lay := newLayout(0x3400000)
			bufBase := lay.array(total)
			outBase := lay.array(total)

			want := make([]uint32, total)
			for t := 0; t < total; t++ {
				want[t] = uint32(t)*3 + 7
			}

			producer := &gpu.Kernel{
				Name: "PIPE-produce", CTAs: ctas, WarpsPerCTA: warps, Regs: 2,
				ProgramFor: seq(func() []*gpu.Instr {
					return []*gpu.Instr{gpu.Store(always(func(t *gpu.Thread) mem.Addr {
						return wordAddr(bufBase, t.GTID)
					}), func(t *gpu.Thread) uint32 { return uint32(t.GTID) * 3 })}
				}),
			}
			consumer := &gpu.Kernel{
				Name: "PIPE-consume", CTAs: ctas, WarpsPerCTA: warps, Regs: 2,
				ProgramFor: seq(func() []*gpu.Instr {
					return []*gpu.Instr{
						gpu.Load(0, always(func(t *gpu.Thread) mem.Addr {
							return wordAddr(bufBase, t.GTID)
						})),
						gpu.ALU(func(t *gpu.Thread) { t.Regs[0] += 7 }, 0),
						gpu.Store(always(func(t *gpu.Thread) mem.Addr {
							return wordAddr(outBase, t.GTID)
						}), func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0),
					}
				}),
			}
			return &Instance{
				Kernels: []*gpu.Kernel{producer, consumer},
				Verify: func(read func(mem.Addr) uint32) error {
					return compareArrays("PIPE out", readBack(read, outBase, total), want)
				},
			}
		},
	}
}
