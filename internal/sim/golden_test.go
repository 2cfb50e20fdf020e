package sim_test

import (
	"fmt"
	"hash/fnv"
	"strings"
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
// The table lists every workload under every golden config
// (goldenConfigs), in that order. Replace it ONLY when the simulated
// machine's intended behaviour changes, with the table that a failing
// TestOptimizedCycleLoopBitIdentical logs.
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
	{"BH", "tc-sc", 18533, 7642, 0x88ad4f7023feddc0},
	{"BH", "bl-rc", 6878, 8612, 0x8f08490c5c876f1c},
	{"BH", "dir-rc", 7401, 5048, 0x6305156f7f0f0f6e},
	{"BH", "gtsc-rc-mesh-banked", 5809, 5306, 0x6da0a333f429a1c3},
	{"BH", "gtsc-rc-ts8", 7019, 7054, 0x7dc0ab7126e8ae34},
	{"BH", "gtsc-rc-mshr2", 9954, 5558, 0x7fdb92d36ea94f91},
	{"BH", "tc-sc-mshr2", 18713, 7936, 0x5e2ef3c04fd1e372},
	{"BH", "dir-rc-mshr2", 8101, 4892, 0x91218e69cac609bf},
	{"CC", "gtsc-rc", 7802, 7686, 0x4bc32a5670c84930},
	{"CC", "gtsc-sc", 9483, 8716, 0x94abb28b87adfd74},
	{"CC", "gtsc-tso", 9483, 8716, 0x305b4b1790ee6f9f},
	{"CC", "tc-rc", 12675, 10426, 0xf736afa70de75070},
	{"CC", "tc-sc", 16486, 11566, 0xe964c965ea0183b8},
	{"CC", "bl-rc", 11585, 37860, 0x2703b8ee13c7a818},
	{"CC", "dir-rc", 8370, 7332, 0x1fabaf9cd68cd46b},
	{"CC", "gtsc-rc-mesh-banked", 7249, 8300, 0x98df71c459bf5e48},
	{"CC", "gtsc-rc-ts8", 8743, 13346, 0x60a2b1379c527bd6},
	{"CC", "gtsc-rc-mshr2", 16397, 9012, 0x5cd1463b7820224c},
	{"CC", "tc-sc-mshr2", 17822, 10876, 0xfde4ce834d31e051},
	{"CC", "dir-rc-mshr2", 11650, 7320, 0x36a8f4198b6fc1c},
	{"DLP", "gtsc-rc", 11333, 11064, 0x5e26c33d670acaca},
	{"DLP", "gtsc-sc", 14352, 11930, 0x30c93daee2acf2c1},
	{"DLP", "gtsc-tso", 14352, 11930, 0x3a4e61a88cc157c9},
	{"DLP", "tc-rc", 21099, 17856, 0x33c0059f27c84db},
	{"DLP", "tc-sc", 25802, 18500, 0x8f96819c0e8c9380},
	{"DLP", "bl-rc", 15427, 43628, 0xc2b61a5354f25d87},
	{"DLP", "dir-rc", 13082, 10098, 0x477fddb453c28542},
	{"DLP", "gtsc-rc-mesh-banked", 10264, 11222, 0xb9430ac7a33e1979},
	{"DLP", "gtsc-rc-ts8", 12923, 20772, 0xb55fdcdf7472d132},
	{"DLP", "gtsc-rc-mshr2", 24078, 13036, 0x52723048d11ea5f},
	{"DLP", "tc-sc-mshr2", 30040, 18760, 0xb3d3fa3a305655da},
	{"DLP", "dir-rc-mshr2", 17003, 10620, 0x64b6e6ec3bc51ad6},
	{"VPR", "gtsc-rc", 7463, 6692, 0x465b60893b41c502},
	{"VPR", "gtsc-sc", 8644, 6978, 0x3cfae48369f860be},
	{"VPR", "gtsc-tso", 8644, 6978, 0xb2ab0f26fe84dff3},
	{"VPR", "tc-rc", 13680, 10216, 0x7b41dbf1b163940d},
	{"VPR", "tc-sc", 15525, 10410, 0x7b2bc77e95ad3bf8},
	{"VPR", "bl-rc", 10549, 27200, 0x9318f8f4f452eaab},
	{"VPR", "dir-rc", 8971, 6252, 0x52fb3d6722bf2016},
	{"VPR", "gtsc-rc-mesh-banked", 6946, 7176, 0xa970bf8051046253},
	{"VPR", "gtsc-rc-ts8", 7988, 10754, 0x217d0ec80de66571},
	{"VPR", "gtsc-rc-mshr2", 14023, 7516, 0xbbb07abc525245a0},
	{"VPR", "tc-sc-mshr2", 19857, 10966, 0x8baa0d7220a7db13},
	{"VPR", "dir-rc-mshr2", 10790, 5438, 0x6eb54734827075d9},
	{"STN", "gtsc-rc", 9970, 9192, 0x483387e10a4014e9},
	{"STN", "gtsc-sc", 11168, 9624, 0xaffde62c14468f89},
	{"STN", "gtsc-tso", 11168, 9624, 0x98a43cad3a2d4e70},
	{"STN", "tc-rc", 19815, 11062, 0x1153cbe12f4a96a6},
	{"STN", "tc-sc", 22165, 11120, 0x55b697d23876382},
	{"STN", "bl-rc", 12112, 21842, 0x6fb01a18f25c5fe5},
	{"STN", "dir-rc", 10238, 10674, 0xb373f23c69254fa0},
	{"STN", "gtsc-rc-mesh-banked", 8226, 9502, 0x283855ae09d6fdec},
	{"STN", "gtsc-rc-ts8", 9811, 11180, 0xfb88be878885e392},
	{"STN", "gtsc-rc-mshr2", 11836, 9110, 0xe096da7205cbef9e},
	{"STN", "tc-sc-mshr2", 25462, 11502, 0xf232ccf9fea2a0d0},
	{"STN", "dir-rc-mshr2", 12171, 8950, 0xd2f6c9e1c7737be7},
	{"BFS", "gtsc-rc", 7908, 9246, 0xb6e2f2d0540159ee},
	{"BFS", "gtsc-sc", 9672, 9736, 0xacdb07e9f2b79f0},
	{"BFS", "gtsc-tso", 9672, 9736, 0x8e1e71f9b4de2f71},
	{"BFS", "tc-rc", 10910, 12522, 0x6ea08c1a06f36183},
	{"BFS", "tc-sc", 12426, 12874, 0xf9ad25453c1b37f5},
	{"BFS", "bl-rc", 14308, 50240, 0x12a3a7045aa146d2},
	{"BFS", "dir-rc", 7306, 6592, 0xe9515e7f0a69dc87},
	{"BFS", "gtsc-rc-mesh-banked", 8207, 9966, 0x81a18f276ce85076},
	{"BFS", "gtsc-rc-ts8", 8358, 16428, 0xee9af758b327aea3},
	{"BFS", "gtsc-rc-mshr2", 22877, 10690, 0xe8f64d27eb7478a7},
	{"BFS", "tc-sc-mshr2", 47493, 33252, 0xf1fcabdd56a3c60a},
	{"BFS", "dir-rc-mshr2", 12183, 6974, 0xa2364c4297cf0916},
	{"CCP", "gtsc-rc", 778, 480, 0x853696a830e03eb6},
	{"CCP", "gtsc-sc", 790, 480, 0x6d39919ae8a042e6},
	{"CCP", "gtsc-tso", 790, 480, 0x2e7afad54b0b4e22},
	{"CCP", "tc-rc", 778, 480, 0xa85b0ee1b7c51239},
	{"CCP", "tc-sc", 790, 480, 0x228b80721b16a357},
	{"CCP", "bl-rc", 1722, 6048, 0x1ad6c2384152cac1},
	{"CCP", "dir-rc", 804, 512, 0x86ef910648b2d3d4},
	{"CCP", "gtsc-rc-mesh-banked", 1407, 480, 0xfb360e015d0bf480},
	{"CCP", "gtsc-rc-ts8", 778, 480, 0x853696a830e03eb6},
	{"CCP", "gtsc-rc-mshr2", 1787, 480, 0xa1802903813319d0},
	{"CCP", "tc-sc-mshr2", 2106, 906, 0x82fca45ad978f68a},
	{"CCP", "dir-rc-mshr2", 1823, 512, 0x8492550e9ef35f4e},
	{"GE", "gtsc-rc", 3602, 2720, 0x4bf7383440306b44},
	{"GE", "gtsc-sc", 4930, 2480, 0x40aa047658e62c7},
	{"GE", "gtsc-tso", 4819, 2752, 0x43f149a6b54aab79},
	{"GE", "tc-rc", 5383, 3120, 0xab46f564d5dca640},
	{"GE", "tc-sc", 13679, 4032, 0xd2be5a3da6e9a328},
	{"GE", "bl-rc", 3436, 5376, 0x3f606d26adce9448},
	{"GE", "dir-rc", 1966, 384, 0x9546be059a1897c5},
	{"GE", "gtsc-rc-mesh-banked", 2953, 2412, 0xefdc2c4e1e757afe},
	{"GE", "gtsc-rc-ts8", 3614, 2880, 0x1756577b221e1e72},
	{"GE", "gtsc-rc-mshr2", 4264, 2608, 0xdab23223b2e1c276},
	{"GE", "tc-sc-mshr2", 13679, 4032, 0xd2be5a3da6e9a328},
	{"GE", "dir-rc-mshr2", 2205, 384, 0x20f82dfd63589532},
	{"HS", "gtsc-rc", 1064, 1024, 0x9f5e8f3cb594614a},
	{"HS", "gtsc-sc", 1064, 1024, 0x31c9254073469ee4},
	{"HS", "gtsc-tso", 1064, 1024, 0xf8a2f9c86c02908c},
	{"HS", "tc-rc", 1233, 1280, 0x2d3b632564198569},
	{"HS", "tc-sc", 1251, 1280, 0xe43c3b8542a91e1d},
	{"HS", "bl-rc", 1611, 2624, 0x3bf93eb7eec69716},
	{"HS", "dir-rc", 932, 384, 0xa45a9f19b52aa508},
	{"HS", "gtsc-rc-mesh-banked", 1545, 1024, 0x623b63c0efe4be83},
	{"HS", "gtsc-rc-ts8", 1064, 1024, 0x9f5e8f3cb594614a},
	{"HS", "gtsc-rc-mshr2", 1766, 1024, 0x1a3b3b8e4dda305c},
	{"HS", "tc-sc-mshr2", 2129, 1424, 0xb80e701a53e28308},
	{"HS", "dir-rc-mshr2", 1450, 384, 0x5141a276a79e795},
	{"KM", "gtsc-rc", 4578, 9312, 0x4d6f58dbf08b273f},
	{"KM", "gtsc-sc", 4578, 9312, 0x48a06eda7d74629c},
	{"KM", "gtsc-tso", 4578, 9312, 0xdec1d2ffbe93ef4c},
	{"KM", "tc-rc", 4578, 9312, 0x332f608ce1444ffd},
	{"KM", "tc-sc", 4578, 9312, 0x61f221730fd15d82},
	{"KM", "bl-rc", 16741, 73824, 0x8b7b1db8a3db5023},
	{"KM", "dir-rc", 4909, 11360, 0x247b4f6f6cdd72f9},
	{"KM", "gtsc-rc-mesh-banked", 8489, 9312, 0x80130c3a252ebeb7},
	{"KM", "gtsc-rc-ts8", 4578, 9312, 0x4d6f58dbf08b273f},
	{"KM", "gtsc-rc-mshr2", 46598, 9312, 0xd92468ba813e0ad},
	{"KM", "tc-sc-mshr2", 100294, 73824, 0x38bcb9f3acda6f2a},
	{"KM", "dir-rc-mshr2", 47207, 11360, 0x829bce5e57446e2f},
	{"BP", "gtsc-rc", 3661, 2472, 0xe0343e4947131b},
	{"BP", "gtsc-sc", 3960, 2472, 0xb39e7b46e9796794},
	{"BP", "gtsc-tso", 3960, 2472, 0xcec762dd2286af87},
	{"BP", "tc-rc", 4235, 10320, 0x8346e2c3598ae904},
	{"BP", "tc-sc", 4928, 12018, 0xa164676226eab112},
	{"BP", "bl-rc", 14542, 63840, 0xd04389bf32959b31},
	{"BP", "dir-rc", 3656, 2426, 0xadf223eafac8b2ca},
	{"BP", "gtsc-rc-mesh-banked", 4797, 2472, 0xdce67f16d52bb103},
	{"BP", "gtsc-rc-ts8", 3661, 2472, 0xe0343e4947131b},
	{"BP", "gtsc-rc-mshr2", 14239, 2472, 0x434c6ff160629d80},
	{"BP", "tc-sc-mshr2", 63526, 63456, 0xd004e972cacd7fb8},
	{"BP", "dir-rc-mshr2", 14198, 2426, 0x329f37cb261df6f3},
	{"SGM", "gtsc-rc", 4279, 528, 0x96060b3ff98eb391},
	{"SGM", "gtsc-sc", 4575, 528, 0xbe8b893c7d9fd1e},
	{"SGM", "gtsc-tso", 4575, 528, 0x906c12ae91774b7a},
	{"SGM", "tc-rc", 4279, 864, 0x630a43e4c5eceada},
	{"SGM", "tc-sc", 4834, 864, 0x65a8bfbed2373218},
	{"SGM", "bl-rc", 4241, 3168, 0xc9f168e7ca2e5385},
	{"SGM", "dir-rc", 4306, 560, 0x3efea784ffaf36d1},
	{"SGM", "gtsc-rc-mesh-banked", 3793, 528, 0x788fa2aaaae58fd6},
	{"SGM", "gtsc-rc-ts8", 4279, 528, 0x96060b3ff98eb391},
	{"SGM", "gtsc-rc-mshr2", 4510, 528, 0x9880178fd15df69d},
	{"SGM", "tc-sc-mshr2", 4834, 864, 0x65a8bfbed2373218},
	{"SGM", "dir-rc-mshr2", 4537, 560, 0x339878b0d638d1f2},
}

// goldenConfigs are the golden table's machine configurations, in the
// order it lists them for each workload (labels of goldenConfig).
var goldenConfigs = []string{
	"gtsc-rc", "gtsc-sc", "gtsc-tso", "tc-rc", "tc-sc", "bl-rc", "dir-rc",
	"gtsc-rc-mesh-banked", "gtsc-rc-ts8",
	"gtsc-rc-mshr2", "tc-sc-mshr2", "dir-rc-mshr2",
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
	case "tc-sc":
		// TC under SC is TC-Strong: writes wait at the L2 for leases
		// to expire, so the lease-wait path is pinned too.
		cfg.Mem.Protocol, cfg.SM.Consistency = memsys.TC, gpu.SC
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
	case "gtsc-rc-mshr2", "tc-sc-mshr2", "dir-rc-mshr2":
		// Two L1 MSHRs: every workload but GE and SGM under TC-SC fills
		// them, so the L1 rejects accesses and the LDST unit's reject
		// path is pinned too.
		base, _ := goldenConfig(strings.TrimSuffix(label, "-mshr2"))
		cfg = base
		cfg.Mem.L1MSHRs = 2
	default:
		return cfg, false
	}
	return cfg, true
}

// tableRow is one machine of the golden or the chaos table's machine
// list, in the form the table tests consume: the subtest name
// (workload/config, plus /plan for chaos rows), the row's key as the
// table spells it, the workload, its machine (fault plan included) and
// the outcome the table pins for it.
type tableRow struct {
	name, key           string
	wl                  *workload.Workload
	cfg                 sim.Config
	cycles, flits, hash uint64
	pinned              bool // the table row at this position names this machine
}

// goldenTable walks the golden machine list — every workload under
// every golden config — and pins each machine to the golden row at its
// position.
func goldenTable(t *testing.T) []tableRow {
	t.Helper()
	var rows []tableRow
	for _, wl := range workload.All() {
		for _, label := range goldenConfigs {
			cfg, ok := goldenConfig(label)
			if !ok {
				t.Fatalf("unknown config label %q", label)
			}
			rows = append(rows, tableRow{name: wl.Name + "/" + label, key: fmt.Sprintf("%q, %q", wl.Name, label), wl: wl, cfg: cfg})
		}
	}
	pins := make([]tableRow, len(goldenRows))
	for i, r := range goldenRows {
		pins[i] = tableRow{key: fmt.Sprintf("%q, %q", r.workload, r.config), cycles: r.cycles, flits: r.flits, hash: r.hash}
	}
	return pinTable(t, "goldenRows", rows, pins)
}

// pinTable copies each pinned outcome onto the machine at the same
// position of the machine list. A table with a changed key, or a
// missing, extra or out-of-order row, fails the test: the machines
// from the first mismatch on stay unpinned.
func pinTable(t *testing.T, table string, machines, pins []tableRow) []tableRow {
	t.Helper()
	if len(pins) != len(machines) {
		t.Errorf("%s has %d rows; its machine list has %d machines", table, len(pins), len(machines))
	}
	for i := range machines {
		m := &machines[i]
		if i >= len(pins) || pins[i].key != m.key {
			got := "nothing"
			if i < len(pins) {
				got = "{" + pins[i].key + "}"
			}
			t.Errorf("%s row %d is %s; the machine list puts {%s} there", table, i, got, m.key)
			break
		}
		m.cycles, m.flits, m.hash, m.pinned = pins[i].cycles, pins[i].flits, pins[i].hash, true
	}
	return machines
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

// checkRun checks a finished run's counters and its table row.
func checkRun(t *testing.T, run *stats.Run, row tableRow) {
	t.Helper()
	checkCounters(t, run)
	if !row.pinned {
		t.Error("no table row pins this machine")
		return
	}
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

// checkCounters asserts the identities a finished run's counters obey.
// A fingerprint pins what the counters read; these pin what they mean,
// so an event counted twice fails even a regenerated table.
func checkCounters(t *testing.T, r *stats.Run) {
	t.Helper()
	law := func(name string, ok bool) {
		t.Helper()
		if !ok {
			t.Errorf("counter identity %q broken: %+v", name, *r)
		}
	}
	l1, l2, dir := &r.L1, &r.L2, r.Protocol == memsys.DIR.String()
	// An L1 counts a load once it accepts it, as a hit or a miss of one
	// cause; a rejected presentation counts only an MSHR stall.
	law("L1 loads = hits + misses", l1.Loads == l1.Hits+l1.Misses())
	// A bank reads DRAM once per miss, to fill it.
	law("DRAM reads = L2 misses", r.DRAM.Reads == l2.Misses)
	// A bank counts a request it serves at most once: as a hit, or as
	// the miss that starts a fill. One that waits behind a fill in
	// flight counts neither.
	law("L2 hits + misses <= requests", l2.Hits+l2.Misses <= l2.Reads+l2.Writes+l2.Atomics)
	// Every dirty L2 eviction writes its block back to DRAM.
	law("DRAM writes >= L2 writebacks", r.DRAM.Writes >= l2.WritebackDRAM)
	// A run ends with the NoC drained, so every fill and every dataless
	// renewal a bank sent has reached its L1.
	law("L1 fills = L2 fills sent", l1.Fills == l2.FillsSent)
	law("L1 renewal hits = L2 renewals sent", l1.RenewalHits == l2.RenewalsSent)
	// An atomic is performed once, at its home bank.
	law("L1 atomics = L2 atomics", l1.Atomics == l2.Atomics)
	// Outside MESI-dir every message to a bank is a request with one
	// response, and every store is written through to the L2. MESI-dir's
	// banks invalidate and recall unasked, and its write-back L1s keep
	// stores to lines they own.
	law("NoC messages to L1 = to L2", dir || r.NoC.MsgsToL1 == r.NoC.MsgsToL2)
	law("L2 writes = L1 stores", dir || l2.Writes == l1.Stores)
}

// checkTable runs every machine of one table's machine list, which
// must hold want machines, and compares each run with its pinned row.
// On any failure it logs the table regenerated from this build, row for
// row, ready to paste over the committed one.
func checkTable(t *testing.T, table string, rows []tableRow, want int) {
	if len(rows) != want {
		t.Errorf("%s machine list has %d machines, want %d", table, len(rows), want)
	}
	regen := make([]string, len(rows))
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("%s regenerated from this build:\n%s", table, strings.Join(regen, "\n"))
		}
	})
	for i, row := range rows {
		i, row := i, row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			run, err := row.wl.Build(1).Run(row.cfg)
			if err != nil {
				regen[i] = fmt.Sprintf("\t// {%s}: %v", row.key, err)
				t.Fatalf("run failed: %v", err)
			}
			regen[i] = fmt.Sprintf("\t{%s, %d, %d, %#x},", row.key, run.Cycles, run.NoC.TotalFlits(), fingerprint(run))
			checkRun(t, run, row)
		})
	}
}

// TestOptimizedCycleLoopBitIdentical proves the hot-path optimizations
// are deterministically equivalent: every workload under every
// protocol/consistency/topology combination must reproduce, bit for
// bit, the stats.Run recorded before the optimizations landed.
func TestOptimizedCycleLoopBitIdentical(t *testing.T) {
	checkTable(t, "goldenRows", goldenTable(t), 144) // 12 workloads x 12 configs
}
