package sim_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/dram"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/noc"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// goldenRow pins one (workload, machine config) simulation to the
// exact stats.Run it produced before the cycle-loop optimizations:
// the kernel cycle count, total NoC flits, and an FNV-1a hash over
// the full formatted stats.Run (every counter, including energy).
// Regenerate with `go run ./internal/sim/goldengen` ONLY when the
// simulated machine's intended behaviour changes.
type goldenRow struct {
	workload string
	config   string
	cycles   uint64
	flits    uint64
	hash     uint64
}

var goldenRows = []goldenRow{
	{"BH", "gtsc-rc", 6776, 5242, 0x7726666545ba25d4},
	{"BH", "gtsc-sc", 8831, 5386, 0x3a29b989a1aa8b45},
	{"BH", "gtsc-tso", 8831, 5386, 0x8f92698ad955576},
	{"BH", "tc-rc", 15502, 7654, 0xc260e8d8ec002698},
	{"BH", "bl-rc", 6878, 8612, 0x8f08490c5c876f1c},
	{"BH", "dir-rc", 7401, 5048, 0x6305156f7f0f0f6e},
	{"BH", "gtsc-rc-mesh-banked", 5809, 5306, 0x6da0a333f429a1c3},
	{"BH", "gtsc-rc-ts8", 7019, 7054, 0x7dc0ab7126e8ae34},
	{"CC", "gtsc-rc", 7802, 7686, 0x4bc32a5670c84930},
	{"CC", "gtsc-sc", 9483, 8716, 0x94abb28b87adfd74},
	{"CC", "gtsc-tso", 9483, 8716, 0x305b4b1790ee6f9f},
	{"CC", "tc-rc", 12675, 10426, 0xf736afa70de75070},
	{"CC", "bl-rc", 11585, 37860, 0x2703b8ee13c7a818},
	{"CC", "dir-rc", 8370, 7332, 0x1fabaf9cd68cd46b},
	{"CC", "gtsc-rc-mesh-banked", 7249, 8300, 0x98df71c459bf5e48},
	{"CC", "gtsc-rc-ts8", 8743, 13346, 0x60a2b1379c527bd6},
	{"DLP", "gtsc-rc", 11333, 11064, 0x5e26c33d670acaca},
	{"DLP", "gtsc-sc", 14352, 11930, 0x30c93daee2acf2c1},
	{"DLP", "gtsc-tso", 14352, 11930, 0x3a4e61a88cc157c9},
	{"DLP", "tc-rc", 21099, 17856, 0x33c0059f27c84db},
	{"DLP", "bl-rc", 15427, 43628, 0xc2b61a5354f25d87},
	{"DLP", "dir-rc", 13082, 10098, 0x477fddb453c28542},
	{"DLP", "gtsc-rc-mesh-banked", 10264, 11222, 0xb9430ac7a33e1979},
	{"DLP", "gtsc-rc-ts8", 12923, 20772, 0xb55fdcdf7472d132},
	{"VPR", "gtsc-rc", 7463, 6692, 0x465b60893b41c502},
	{"VPR", "gtsc-sc", 8644, 6978, 0x3cfae48369f860be},
	{"VPR", "gtsc-tso", 8644, 6978, 0xb2ab0f26fe84dff3},
	{"VPR", "tc-rc", 13680, 10216, 0x7b41dbf1b163940d},
	{"VPR", "bl-rc", 10549, 27200, 0x9318f8f4f452eaab},
	{"VPR", "dir-rc", 8971, 6252, 0x52fb3d6722bf2016},
	{"VPR", "gtsc-rc-mesh-banked", 6946, 7176, 0xa970bf8051046253},
	{"VPR", "gtsc-rc-ts8", 7988, 10754, 0x217d0ec80de66571},
	{"STN", "gtsc-rc", 9970, 9192, 0x483387e10a4014e9},
	{"STN", "gtsc-sc", 11168, 9624, 0xaffde62c14468f89},
	{"STN", "gtsc-tso", 11168, 9624, 0x98a43cad3a2d4e70},
	{"STN", "tc-rc", 19815, 11062, 0x1153cbe12f4a96a6},
	{"STN", "bl-rc", 12112, 21842, 0x6fb01a18f25c5fe5},
	{"STN", "dir-rc", 10238, 10674, 0xb373f23c69254fa0},
	{"STN", "gtsc-rc-mesh-banked", 8226, 9502, 0x283855ae09d6fdec},
	{"STN", "gtsc-rc-ts8", 9811, 11180, 0xfb88be878885e392},
	{"BFS", "gtsc-rc", 7908, 9246, 0xb6e2f2d0540159ee},
	{"BFS", "gtsc-sc", 9672, 9736, 0xacdb07e9f2b79f0},
	{"BFS", "gtsc-tso", 9672, 9736, 0x8e1e71f9b4de2f71},
	{"BFS", "tc-rc", 10910, 12522, 0x6ea08c1a06f36183},
	{"BFS", "bl-rc", 14308, 50240, 0x12a3a7045aa146d2},
	{"BFS", "dir-rc", 7306, 6592, 0xe9515e7f0a69dc87},
	{"BFS", "gtsc-rc-mesh-banked", 8207, 9966, 0x81a18f276ce85076},
	{"BFS", "gtsc-rc-ts8", 8358, 16428, 0xee9af758b327aea3},
	{"CCP", "gtsc-rc", 778, 480, 0x853696a830e03eb6},
	{"CCP", "gtsc-sc", 790, 480, 0x6d39919ae8a042e6},
	{"CCP", "gtsc-tso", 790, 480, 0x2e7afad54b0b4e22},
	{"CCP", "tc-rc", 778, 480, 0xa85b0ee1b7c51239},
	{"CCP", "bl-rc", 1722, 6048, 0x1ad6c2384152cac1},
	{"CCP", "dir-rc", 804, 512, 0x86ef910648b2d3d4},
	{"CCP", "gtsc-rc-mesh-banked", 1407, 480, 0xfb360e015d0bf480},
	{"CCP", "gtsc-rc-ts8", 778, 480, 0x853696a830e03eb6},
	{"GE", "gtsc-rc", 3602, 2720, 0x4bf7383440306b44},
	{"GE", "gtsc-sc", 4930, 2480, 0x40aa047658e62c7},
	{"GE", "gtsc-tso", 4819, 2752, 0x43f149a6b54aab79},
	{"GE", "tc-rc", 5383, 3120, 0xab46f564d5dca640},
	{"GE", "bl-rc", 3436, 5376, 0x3f606d26adce9448},
	{"GE", "dir-rc", 1966, 384, 0x9546be059a1897c5},
	{"GE", "gtsc-rc-mesh-banked", 2953, 2412, 0xefdc2c4e1e757afe},
	{"GE", "gtsc-rc-ts8", 3614, 2880, 0x1756577b221e1e72},
	{"HS", "gtsc-rc", 1064, 1024, 0x9f5e8f3cb594614a},
	{"HS", "gtsc-sc", 1064, 1024, 0x31c9254073469ee4},
	{"HS", "gtsc-tso", 1064, 1024, 0xf8a2f9c86c02908c},
	{"HS", "tc-rc", 1233, 1280, 0x2d3b632564198569},
	{"HS", "bl-rc", 1611, 2624, 0x3bf93eb7eec69716},
	{"HS", "dir-rc", 932, 384, 0xa45a9f19b52aa508},
	{"HS", "gtsc-rc-mesh-banked", 1545, 1024, 0x623b63c0efe4be83},
	{"HS", "gtsc-rc-ts8", 1064, 1024, 0x9f5e8f3cb594614a},
	{"KM", "gtsc-rc", 4578, 9312, 0x4d6f58dbf08b273f},
	{"KM", "gtsc-sc", 4578, 9312, 0x48a06eda7d74629c},
	{"KM", "gtsc-tso", 4578, 9312, 0xdec1d2ffbe93ef4c},
	{"KM", "tc-rc", 4578, 9312, 0x332f608ce1444ffd},
	{"KM", "bl-rc", 16741, 73824, 0x8b7b1db8a3db5023},
	{"KM", "dir-rc", 4909, 11360, 0x247b4f6f6cdd72f9},
	{"KM", "gtsc-rc-mesh-banked", 8489, 9312, 0x80130c3a252ebeb7},
	{"KM", "gtsc-rc-ts8", 4578, 9312, 0x4d6f58dbf08b273f},
	{"BP", "gtsc-rc", 3661, 2472, 0xa0f79597b8440c2a},
	{"BP", "gtsc-sc", 3960, 2472, 0xe3180b4283e4036d},
	{"BP", "gtsc-tso", 3960, 2472, 0x74df5c3d779aa738},
	{"BP", "tc-rc", 4235, 10320, 0x6a039ca9d1c7f6c5},
	{"BP", "bl-rc", 14542, 63840, 0xa51fa276e851fc3},
	{"BP", "dir-rc", 3656, 2426, 0xcca0bb32968253a0},
	{"BP", "gtsc-rc-mesh-banked", 4797, 2472, 0x5524cdeea69a9bc},
	{"BP", "gtsc-rc-ts8", 3661, 2472, 0xa0f79597b8440c2a},
	{"SGM", "gtsc-rc", 4279, 528, 0x96060b3ff98eb391},
	{"SGM", "gtsc-sc", 4575, 528, 0xbe8b893c7d9fd1e},
	{"SGM", "gtsc-tso", 4575, 528, 0x906c12ae91774b7a},
	{"SGM", "tc-rc", 4279, 864, 0x630a43e4c5eceada},
	{"SGM", "bl-rc", 4241, 3168, 0xc9f168e7ca2e5385},
	{"SGM", "dir-rc", 4306, 560, 0x3efea784ffaf36d1},
	{"SGM", "gtsc-rc-mesh-banked", 3793, 528, 0x788fa2aaaae58fd6},
	{"SGM", "gtsc-rc-ts8", 4279, 528, 0x96060b3ff98eb391},
}

// goldenConfig builds the benchmark machine for one golden row.
func goldenConfig(label string) (sim.Config, bool) {
	cfg := sim.DefaultConfig()
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 4
	switch label {
	case "gtsc-rc":
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.GTSC, gpu.RC
	case "gtsc-sc":
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.GTSC, gpu.SC
	case "gtsc-tso":
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.GTSC, gpu.TSO
	case "tc-rc":
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.TC, gpu.RC
	case "bl-rc":
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.BL, gpu.RC
	case "dir-rc":
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.DIR, gpu.RC
	case "gtsc-rc-mesh-banked":
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.GTSC, gpu.RC
		cfg.Mem.NoC = noc.DefaultMeshConfig()
		cfg.Mem.DRAM = dram.DefaultBankedConfig()
	case "gtsc-rc-ts8":
		// 8-bit timestamp counters: the §V-D overflow reset fires
		// routinely, pinning the epoch-crossing paths bit-for-bit.
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.GTSC, gpu.RC
		cfg.Mem.GTSC.TSBits = 8
	default:
		return cfg, false
	}
	return cfg, true
}

// tableRow is one row of the golden or the chaos fingerprint table in
// the form the table tests consume: the subtest name
// (workload/config, plus /plan for chaos rows), the workload, its
// machine (fault plan included) and the pinned outcome.
type tableRow struct {
	name                string
	wl                  *workload.Workload
	cfg                 sim.Config
	cycles, flits, hash uint64
}

// goldenTable resolves every golden row.
func goldenTable(t *testing.T) []tableRow {
	t.Helper()
	rows := make([]tableRow, 0, len(goldenRows))
	for _, r := range goldenRows {
		wl, ok := workload.ByName(r.workload)
		if !ok {
			t.Fatalf("unknown workload %q", r.workload)
		}
		cfg, ok := goldenConfig(r.config)
		if !ok {
			t.Fatalf("unknown config label %q", r.config)
		}
		rows = append(rows, tableRow{r.workload + "/" + r.config, wl, cfg, r.cycles, r.flits, r.hash})
	}
	return rows
}

// chaosTable resolves every chaos row.
func chaosTable(t *testing.T) []tableRow {
	t.Helper()
	rows := make([]tableRow, 0, len(chaosRows))
	for _, r := range chaosRows {
		cfg, wl := chaosRowConfig(t, r)
		rows = append(rows, tableRow{r.workload + "/" + r.config + "/" + r.plan, wl, cfg, r.cycles, r.flits, r.hash})
	}
	return rows
}

// tableRows is both tables: every golden row, then every chaos row.
func tableRows(t *testing.T) []tableRow {
	return append(goldenTable(t), chaosTable(t)...)
}

// fingerprint is the FNV-1a hash over the full formatted stats.Run
// that both tables pin.
func fingerprint(run *stats.Run) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *run)
	return h.Sum64()
}

// checkRun compares a finished run with its table row.
func checkRun(t *testing.T, run *stats.Run, row tableRow) {
	t.Helper()
	if run.Cycles != row.cycles {
		t.Errorf("cycles = %d, table %d", run.Cycles, row.cycles)
	}
	if got := run.NoC.TotalFlits(); got != row.flits {
		t.Errorf("total flits = %d, table %d", got, row.flits)
	}
	if got := fingerprint(run); got != row.hash {
		t.Errorf("stats.Run fingerprint = %#x, table %#x (full stats diverged)", got, row.hash)
	}
}

// TestOptimizedCycleLoopBitIdentical proves the hot-path optimizations
// are deterministically equivalent: every workload under every
// protocol/consistency/topology combination must reproduce, bit for
// bit, the stats.Run recorded before the optimizations landed.
func TestOptimizedCycleLoopBitIdentical(t *testing.T) {
	for _, row := range goldenTable(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			run, err := row.wl.Build(1).Run(row.cfg)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			checkRun(t, run, row)
		})
	}
}
