package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The layers CPU samples are attributed to, in report order.
var layers = []string{"gpu", "l1", "noc", "l2", "dram", "engine", "relaxed", "runtime", "workload", "other"}

const modulePath = "github.com/gtsc-sim/gtsc/"

// packageLayers maps each repository package on the simulation path to
// its layer. An empty layer marks a package whose code serves several
// layers (caches, messages, stats, workload programs): its frames are
// skipped and the sample goes to the nearest caller that has a layer.
// The controller packages split by file, see controllerLayer.
var packageLayers = map[string]string{
	"internal/gpu":       "gpu",
	"internal/noc":       "noc",
	"internal/dram":      "dram",
	"internal/sim":       "engine",
	"internal/sched":     "engine",
	"internal/memsys":    "engine",
	"internal/cache":     "",
	"internal/mem":       "",
	"internal/coherence": "",
	"internal/stats":     "",
	"internal/energy":    "",
	"internal/workload":  "",
	"internal/core":      "",
	"internal/tc":        "",
	"internal/dir":       "",
	"internal/nocoh":     "",
}

// relaxedFiles are the engine files that belong to the relaxed-sync
// layer: its epoch loop, exchange, and domain worker pool.
var relaxedFiles = map[string]bool{
	"internal/sim/relaxed.go":    true,
	"internal/sim/parallel.go":   true,
	"internal/memsys/relaxed.go": true,
}

// controllerLayer maps the L1 and L2 files of the four protocol
// packages (l1.go, l2.go, l1simple.go, l2plain.go) to their layer.
func controllerLayer(pkg, file string) (string, bool) {
	switch pkg {
	case "internal/core", "internal/tc", "internal/dir", "internal/nocoh":
	default:
		return "", false
	}
	switch base := path.Base(file); {
	case strings.HasPrefix(base, "l1"):
		return "l1", true
	case strings.HasPrefix(base, "l2"):
		return "l2", true
	}
	return "", false
}

// frameLayer classifies one stack frame. repo reports whether the frame
// is code of this repository (the benchmark's own package main
// included); layer is "" for frames that defer to their caller.
func frameLayer(fn, file string) (layer string, repo bool) {
	if strings.HasPrefix(fn, "main.") {
		// The benchmark harness: building, verifying, bookkeeping.
		return "workload", true
	}
	if !strings.HasPrefix(fn, modulePath) {
		return "", false
	}
	// The module's package paths hold no dots, so the package ends at
	// the first one.
	pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, modulePath), ".")
	if l, ok := controllerLayer(pkg, file); ok {
		return l, true
	}
	if relaxedFiles[pkg+"/"+path.Base(file)] {
		return "relaxed", true
	}
	l, known := packageLayers[pkg]
	if !known {
		return "other", true
	}
	return l, true
}

// sampleLayer attributes one sample by its stack, leaf first: the
// first repository frame with a layer wins. A stack with no repository
// frame is Go runtime work (GC workers, the scheduler); one whose
// repository frames all defer to callers is "other".
func sampleLayer(stack []frame) string {
	sawRepo := false
	for _, f := range stack {
		l, repo := frameLayer(f.fn, f.file)
		if !repo {
			continue
		}
		sawRepo = true
		if l != "" {
			return l
		}
	}
	if !sawRepo {
		return "runtime"
	}
	return "other"
}

func isMalloc(fn string) bool { return fn == "runtime.mallocgc" }

// isSched matches the Go scheduler switching goroutines: on the relaxed
// workload, mostly the domain pool's yield loop.
func isSched(fn string) bool {
	switch fn {
	case "runtime.mcall", "runtime.schedule", "runtime.park_m", "runtime.gosched_m":
		return true
	}
	return false
}

func isMap(fn string) bool {
	return strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps.")
}

// profileShares is the CPU-profile breakdown of a traced run.
type profileShares struct {
	samples int
	layer   map[string]float64 // share of CPU time per layer
	malloc  float64            // share with runtime.mallocgc on the stack
	maps    float64            // share inside Go map operations
	sched   float64            // share in the Go scheduler
	phase   map[string]float64 // share per engine_phase label value
}

// shares decodes a gzipped pprof CPU profile and attributes its CPU
// time to layers, map and malloc work, and engine phases.
func shares(gz []byte) (*profileShares, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := &profileShares{layer: map[string]float64{}, phase: map[string]float64{}}
	var total float64
	for _, s := range p.samples {
		w := float64(s.value)
		total += w
		out.samples++
		if _, ok := s.labels["bench_phase"]; ok {
			// Building inputs, sim.New, and verifying outputs: the
			// workload layer whatever code they call.
			out.layer["workload"] += w
		} else {
			out.layer[sampleLayer(s.stack)] += w
		}
		var malloc, maps, sched bool
		for _, f := range s.stack {
			malloc = malloc || isMalloc(f.fn)
			maps = maps || isMap(f.fn)
			sched = sched || isSched(f.fn)
		}
		if malloc {
			out.malloc += w
		}
		if maps {
			out.maps += w
		}
		if sched {
			out.sched += w
		}
		if ph, ok := s.labels["engine_phase"]; ok {
			out.phase[ph] += w
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range out.layer {
		out.layer[k] /= total
	}
	for k := range out.phase {
		out.phase[k] /= total
	}
	out.malloc /= total
	out.maps /= total
	out.sched /= total
	return out, nil
}

// frame is one function of a sample's stack.
type frame struct{ fn, file string }

type sample struct {
	stack  []frame // leaf first, inlined frames expanded
	value  int64   // CPU nanoseconds
	labels map[string]string
}

type profile struct{ samples []sample }

// parseProfile decodes the subset of the pprof protobuf format (see
// github.com/google/pprof/proto/profile.proto) that CPU profiles from
// runtime/pprof use: samples with location ids, values and string
// labels; locations with their (inlined) lines; functions; strings.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		vals   []uint64
		labels [][2]uint64 // key, str string indexes
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{}  // location id -> function ids, leaf first
		funcs   = map[uint64][2]uint64{} // function id -> name, filename
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				case 3:
					var kv [2]uint64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var nf [2]uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					nf[0] = v
				case 4:
					nf[1] = v
				}
				return nil
			})
			funcs[id] = nf
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, rs := range samples {
		s := sample{labels: map[string]string{}}
		if len(rs.vals) > 0 {
			s.value = int64(rs.vals[len(rs.vals)-1])
		}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				nf := funcs[fid]
				s.stack = append(s.stack, frame{fn: str(nf[0]), file: str(nf[1])})
			}
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, handing varint
// fields their value and length-delimited fields their bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (v) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
