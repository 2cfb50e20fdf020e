package main

import (
	"cmp"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow is the process's CPU time (user + system, every thread): what
// the host spent on the simulator, GC workers included, independent of
// how long the process waited for a CPU.
func cpuNow() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU is the CPU time of the calling OS thread.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuClock reads a Linux CPU-time clock. Unlike getrusage, whose
// user/system split is rescaled from scheduler ticks, these clocks count
// nanoseconds of execution exactly.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error()) // fails only for an unknown clock id
	}
	return time.Duration(ts.Nano())
}

// heapGoal is the heap size at which the Go runtime starts its next GC
// cycle: the peak the heap grows to between collections.
func heapGoal() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runtimeCounters are the Go runtime's cumulative heap and GC counters.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64 // seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

// hostTimes is the host-wide CPU time split from /proc/stat, in ticks.
type hostTimes struct{ steal, total uint64 }

// readHostTimes returns the aggregate CPU line of /proc/stat; ok is
// false where the file is unavailable.
func readHostTimes() (hostTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTimes{}, false
	}
	var h hostTimes
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostTimes{}, false
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, true
}

// stealPct is the share of host CPU time the hypervisor took from this
// guest between two readings.
func stealPct(a, b hostTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// weighted is one sample of a weighted distribution.
type weighted struct{ v, w float64 }

// weightedQuantile returns the q-quantile of a weighted distribution,
// interpolating linearly between samples placed at the midpoints of
// their cumulative weight, so the result moves smoothly as weights and
// values shift (0 when empty).
func weightedQuantile(xs []weighted, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.SortFunc(s, func(a, b weighted) int { return cmp.Compare(a.v, b.v) })
	var total float64
	for _, x := range s {
		total += x.w
	}
	target := q * total
	var cum, prevPos, prevV float64
	for i, x := range s {
		pos := cum + x.w/2
		cum += x.w
		if pos >= target {
			if i == 0 {
				return x.v
			}
			return prevV + (target-prevPos)/(pos-prevPos)*(x.v-prevV)
		}
		prevPos, prevV = pos, x.v
	}
	return s[len(s)-1].v
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Host calibration. The host's speed swings by tens of percent within
// seconds (other tenants share its cores and memory), and CPU time
// swings with it. Before every simulation, and after a round's last,
// the benchmark therefore runs a short slice of a fixed synthetic
// kernel whose instruction mix resembles the simulator's: map lookups,
// pointer-linked structs, and a binary heap. A simulation's CPU time is
// reported in seconds of a host on which one slice takes calibNominal
// (see calibFactor). The kernel is part of the benchmark, so it is the
// same for every commit measured, and it allocates nothing, so it
// measures the host, not the garbage collector.
const (
	calibNodes   = 1 << 12
	calibIters   = 20_000
	calibNominal = 2 * time.Millisecond

	// calibExponent is how steeply the simulator's CPU time follows the
	// slice time as the host's speed changes. In 94 runs over three
	// periods hours apart on a 2-vCPU VM, a least-squares fit of log CPU
	// time per run against log slice time gave slopes of 1.1 to 1.26
	// per workload and period (0.96 on relaxed). On the exact workloads,
	// exponent 1.2 cut the run-to-run spread of cpu_s from 4 to 7% to 2
	// to 3.5%, and the periods' medians agreed within 1.7% instead of
	// 4.4% (see README.md). The simulator slows more than the slice
	// when other tenants load the host: its working set is larger, and
	// its garbage collector runs on the second CPU.
	calibExponent = 1.2
)

// calibFactor converts CPU time measured between two calibration
// slices into calibrated seconds: (calibNominal / mean slice) raised to
// calibExponent.
func calibFactor(before, after time.Duration) float64 {
	return math.Pow(float64(calibNominal)/(float64(before+after)/2), calibExponent)
}

type calibNode struct {
	next *calibNode
	key  uint64
	vals [6]uint64
}

// calibState is the kernel's working set, built once so that slices
// allocate nothing.
type calibState struct {
	m    map[uint64]*calibNode
	heap []uint64
	x    uint64
	sink uint64
}

func newCalibState() *calibState {
	c := &calibState{m: make(map[uint64]*calibNode, calibNodes), heap: make([]uint64, 0, 257), x: 0x9E3779B97F4A7C15}
	nodes := make([]calibNode, calibNodes)
	for i := range nodes {
		nodes[i].key = uint64(i)
		nodes[i].next = &nodes[(i*7919+1)%calibNodes]
		c.m[uint64(i)] = &nodes[i]
	}
	return c
}

// slice runs one calibration slice and returns the CPU time it took on
// its thread, which excludes GC workers running beside it.
func (c *calibState) slice() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	x, sum, heap := c.x, c.sink, c.heap
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := c.m[x%calibNodes]
		n.vals[x%6] += x
		for p, j := n, 0; j < 4; p, j = p.next, j+1 {
			sum += p.key + p.vals[j]
		}
		// A min-heap bounded at 256 entries: push, and pop the minimum
		// once full.
		heap = append(heap, x>>32)
		for k := len(heap) - 1; k > 0 && heap[(k-1)/2] > heap[k]; k = (k - 1) / 2 {
			heap[k], heap[(k-1)/2] = heap[(k-1)/2], heap[k]
		}
		if len(heap) > 256 {
			sum += heap[0]
			last := len(heap) - 1
			heap[0] = heap[last]
			heap = heap[:last]
			for k := 0; ; {
				l, small := 2*k+1, k
				if l < len(heap) && heap[l] < heap[small] {
					small = l
				}
				if l+1 < len(heap) && heap[l+1] < heap[small] {
					small = l + 1
				}
				if small == k {
					break
				}
				heap[k], heap[small] = heap[small], heap[k]
				k = small
			}
		}
	}
	c.x, c.sink, c.heap = x, sum, heap
	return threadCPU() - c0
}
