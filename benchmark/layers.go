package main

import "time"

// layerMetrics assembles the per-layer metrics of a traced run. plain
// are untraced, unprofiled rounds, traced the rounds with controller
// spans, sh the CPU profile of further rounds; counts are per round
// (medians over rounds). steal is the host's steal time over the run in
// percent.
func layerMetrics(b *bench, plain, traced []*round, sh *profileShares, steal float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	medOf := func(rounds []*round, f func(r *round) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	// med and medPlain are medians of a per-round value over the traced
	// and the plain rounds.
	med := func(f func(r *round) float64) float64 { return medOf(traced, f) }
	medPlain := func(f func(r *round) float64) float64 { return medOf(plain, f) }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	u := func(f func(r *round) uint64) float64 { return med(func(r *round) float64 { return float64(f(r)) }) }
	i64 := func(f func(r *round) int64) float64 { return med(func(r *round) float64 { return float64(f(r)) }) }
	ms := func(f func(r *round) time.Duration) float64 {
		return medPlain(func(r *round) float64 { return float64(f(r)) / 1e6 })
	}

	for _, l := range layers {
		put(l+".cpu_share", sh.layer[l], "fraction")
	}

	put("gpu.instr", u(func(r *round) uint64 { return r.total.SM.InstrIssued }), "count")
	put("gpu.sm_ticks", u(func(r *round) uint64 { return r.eng.smTicks }), "count")
	put("gpu.sm_sleep_cycles", u(func(r *round) uint64 { return r.eng.smSleepCycles }), "cycles")
	put("gpu.mem_stall_cycles", u(func(r *round) uint64 { return r.total.SM.MemStallCycles }), "cycles")

	spans := func(prefix string, ls func(r *round) *layerSpans) {
		put(prefix+".tick.calls", i64(func(r *round) int64 { return ls(r).tick.calls }), "count")
		put(prefix+".tick.ns", i64(func(r *round) int64 { return ls(r).tick.ns }), "ns")
		put(prefix+".deliver.calls", i64(func(r *round) int64 { return ls(r).deliver.calls }), "count")
		put(prefix+".deliver.ns", i64(func(r *round) int64 { return ls(r).deliver.ns }), "ns")
		put(prefix+".sync.calls", i64(func(r *round) int64 { return ls(r).syncs }), "count")
		put(prefix+".quiescent.calls", i64(func(r *round) int64 { return ls(r).quiescent }), "count")
	}
	l1 := func(r *round) *layerSpans { return &r.l1 }
	l2 := func(r *round) *layerSpans { return &r.l2 }
	spans("l1", l1)
	spans("l2", l2)
	put("l1.access.calls", i64(func(r *round) int64 { return r.l1.access.calls }), "count")
	put("l1.access.ns", i64(func(r *round) int64 { return r.l1.access.ns }), "ns")
	put("l1.reject_frac", med(func(r *round) float64 {
		return ratio(uint64(r.l1.rejects), uint64(r.l1.access.calls))
	}), "fraction")
	put("l1.hit_ratio", med(func(r *round) float64 { return ratio(r.total.L1.Hits, r.total.L1.Loads) }), "fraction")
	put("l1.renewals", u(func(r *round) uint64 { return r.total.L1.Renewals }), "count")

	put("noc.msgs", u(func(r *round) uint64 { return r.total.NoC.MsgsToL2 + r.total.NoC.MsgsToL1 }), "count")
	put("noc.flits", u(func(r *round) uint64 { return r.total.NoC.TotalFlits() }), "count")
	put("noc.queue_delay_cycles", u(func(r *round) uint64 { return r.total.NoC.QueueDelay }), "cycles")
	put("noc.ticks", u(func(r *round) uint64 { return r.eng.nocTicks }), "count")

	put("l2.reads", u(func(r *round) uint64 { return r.total.L2.Reads }), "count")
	put("l2.writes", u(func(r *round) uint64 { return r.total.L2.Writes }), "count")
	put("l2.atomics", u(func(r *round) uint64 { return r.total.L2.Atomics }), "count")
	put("l2.hit_ratio", med(func(r *round) float64 {
		return ratio(r.total.L2.Hits, r.total.L2.Hits+r.total.L2.Misses)
	}), "fraction")
	put("l2.write_stalls", u(func(r *round) uint64 { return r.total.L2.WriteStalls }), "cycles")
	put("l2.recalls", u(func(r *round) uint64 { return r.total.L2.Recalls }), "count")
	put("l2.dram_fill.calls", i64(func(r *round) int64 { return r.l2.dramFill.calls }), "count")
	put("l2.dram_fill.ns", i64(func(r *round) int64 { return r.l2.dramFill.ns }), "ns")

	put("dram.accesses", u(func(r *round) uint64 { return r.total.DRAM.Reads + r.total.DRAM.Writes }), "count")
	put("dram.busy_cycles", u(func(r *round) uint64 { return r.total.DRAM.BusyCycles }), "cycles")
	put("dram.ticks", u(func(r *round) uint64 { return r.eng.dramTicks }), "count")

	put("engine.event_cycles", u(func(r *round) uint64 { return r.eng.eventCycles }), "count")
	put("engine.skipped_cycles", u(func(r *round) uint64 { return r.eng.skippedCycles }), "cycles")
	put("engine.dispatches", u(func(r *round) uint64 { return r.eng.dispatches }), "count")
	put("engine.hierarchy_sleep_frac", med(func(r *round) float64 {
		return ratio(r.eng.hierSleeps, r.eng.hierTicks+r.eng.hierSleeps)
	}), "fraction")
	// Self time needs one goroutine per simulation; with relaxed domain
	// workers it is not defined and reads 0.
	put("engine.self_ns", med(func(r *round) float64 {
		if !r.serialSelf {
			return 0
		}
		return float64(r.selfNs)
	}), "ns")

	put("relaxed.epochs", u(func(r *round) uint64 { return r.eng.epochs }), "count")
	put("relaxed.exchanged_msgs", u(func(r *round) uint64 { return r.eng.exchanged }), "count")
	put("relaxed.held_msgs", u(func(r *round) uint64 { return r.eng.held }), "count")
	put("relaxed.domain_run_share", sh.phase["domain-run"], "fraction")
	put("relaxed.epoch_barrier_share", sh.phase["epoch-barrier"], "fraction")
	put("relaxed.noc_exchange_share", sh.phase["noc-exchange"], "fraction")
	var simCPU, simWall time.Duration
	for _, r := range plain {
		simCPU += r.sim
		simWall += r.simWall
	}
	put("relaxed.parallelism", float64(simCPU)/float64(max(simWall, 1)), "ratio")

	put("runtime.gc_cpu_s", medPlain(func(r *round) float64 { return r.rt.gcCPU }), "s")
	put("runtime.gc_cycles", medPlain(func(r *round) float64 { return float64(r.rt.gcCycles) }), "count")
	put("runtime.alloc_objects", medPlain(func(r *round) float64 { return float64(r.rt.allocObjects) }), "count")
	put("runtime.malloc_share", sh.malloc, "fraction")
	put("runtime.map_share", sh.maps, "fraction")
	put("runtime.sched_share", sh.sched, "fraction")

	put("workload.build_ms", ms(func(r *round) time.Duration { return r.build }), "ms")
	put("workload.sim_new_ms", ms(func(r *round) time.Duration { return r.newSim }), "ms")
	put("workload.verify_ms", ms(func(r *round) time.Duration { return r.verify }), "ms")

	put("host.steal_pct", steal, "%")
	put("host.max_rss_mb", maxRSSMB(), "MB")
	put("host.wall_s", medPlain(func(r *round) float64 { return r.wall.Seconds() }), "s")
	var slices []float64
	for _, r := range plain {
		for _, d := range r.slices {
			slices = append(slices, float64(d)/1e6)
		}
	}
	put("host.calib_ms", median(slices), "ms")
	put("trace.overhead_pct", 100*(calibrated(traced, simPhase)/calibrated(plain, simPhase)-1), "%")

	// Model outputs: what the simulated GPU did, identical on every
	// round of a correct run.
	put("model.sim_cycles", u(func(r *round) uint64 { return r.total.Cycles }), "cycles")
	cycles := map[string]uint64{}
	for name, run := range b.ref {
		cycles[name] = run.Cycles
	}
	put("model.gtsc_speedup_vs_tc", speedupVsTC(cycles), "ratio")
	put("model.cycle_dev_pct", b.cycleDevPct, "%")
	return m
}
