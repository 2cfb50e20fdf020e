package sim_test

import (
	"fmt"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// chaosRow pins one fault-injected simulation — a coherence workload
// on a golden machine config under a seeded chaos plan — to the
// stats.Run it produced on the serial per-cycle tick order: every
// component ticked on every cycle, no cycle ever skipped. The event
// engine dispatches the same machine from its wake agenda, with the
// fault shims as agenda components, so reproducing this table
// bit-for-bit is the test that agenda dispatch equals serial tick
// order under delivery jitter, reordering, rejects, DRAM spikes and
// forced rollovers (DESIGN.md §7). The table lists every coherence
// workload under every chaos config (chaosConfigs) and plan
// (chaosPlans), in that order. Replace it ONLY when the simulated
// machine's intended behaviour changes, with the table that a failing
// TestChaosFingerprintsBitIdentical logs.
type chaosRow struct {
	workload string
	config   string // goldenConfig label
	plan     string // chaosPlans label
	cycles   uint64
	flits    uint64
	hash     uint64
}

// chaosConfigs are the golden configs the chaos table sweeps: one per
// coherent protocol, plus G-TSC and TC under SC, plus G-TSC-RC and
// TC-SC on two L1 MSHRs, whose L1s reject accesses under every plan.
var chaosConfigs = []string{"gtsc-rc", "gtsc-sc", "tc-rc", "tc-sc", "bl-rc", "dir-rc", "gtsc-rc-mshr2", "tc-sc-mshr2"}

// chaosPlans are the chaos table's fault plans, by row label:
// fault.Chaos at seeds 1 and 2, and fault.ChaosRollover (forced §V-D
// resets on top) at seed 3.
var chaosPlans = []struct {
	label string
	plan  fault.Config
}{
	{"chaos1", fault.Chaos(1)},
	{"chaos2", fault.Chaos(2)},
	{"rollover3", fault.ChaosRollover(3)},
}

var chaosRows = []chaosRow{
	{"BH", "gtsc-rc", "chaos1", 8692, 5426, 0x927d21cb2978d336},
	{"BH", "gtsc-rc", "chaos2", 8655, 5406, 0xa38f6a72214f8998},
	{"BH", "gtsc-rc", "rollover3", 8432, 5620, 0x554493a0837238b1},
	{"BH", "gtsc-sc", "chaos1", 10882, 5552, 0x37881e7a21bfc3c9},
	{"BH", "gtsc-sc", "chaos2", 10851, 5554, 0xdbc5aef446b62bcf},
	{"BH", "gtsc-sc", "rollover3", 10906, 5906, 0x6e71f6e0ac63d227},
	{"BH", "tc-rc", "chaos1", 10204, 7318, 0xa01f4168bb27bc89},
	{"BH", "tc-rc", "chaos2", 10483, 7354, 0x6b614dd0da9ccf59},
	{"BH", "tc-rc", "rollover3", 10220, 7312, 0x5a5a995f8d9b1bd7},
	{"BH", "tc-sc", "chaos1", 12712, 7518, 0x2e51c32648bd1ff6},
	{"BH", "tc-sc", "chaos2", 12989, 7576, 0xcf25440912226e48},
	{"BH", "tc-sc", "rollover3", 13055, 7552, 0xfceed8c742486d87},
	{"BH", "bl-rc", "chaos1", 8484, 8732, 0xa15ae123b8671a71},
	{"BH", "bl-rc", "chaos2", 8546, 8696, 0xa262dfd089a3f83d},
	{"BH", "bl-rc", "rollover3", 8853, 8794, 0xe0bd0d259800e123},
	{"BH", "dir-rc", "chaos1", 9379, 5136, 0xa7632a89c4b6f9e7},
	{"BH", "dir-rc", "chaos2", 8924, 5080, 0x15e95254d53136dc},
	{"BH", "dir-rc", "rollover3", 9327, 5222, 0xa3d224c650595fcf},
	{"BH", "gtsc-rc-mshr2", "chaos1", 11615, 5628, 0x4f609c2c999d0f50},
	{"BH", "gtsc-rc-mshr2", "chaos2", 12051, 5714, 0x45b596c75673a986},
	{"BH", "gtsc-rc-mshr2", "rollover3", 12366, 6268, 0x78361102ba540e85},
	{"BH", "tc-sc-mshr2", "chaos1", 14326, 7768, 0x11129828e271e29f},
	{"BH", "tc-sc-mshr2", "chaos2", 13765, 7614, 0x683f202a6a17ae99},
	{"BH", "tc-sc-mshr2", "rollover3", 13680, 7588, 0x9e7a7781f086f761},
	{"CC", "gtsc-rc", "chaos1", 11282, 8820, 0x4bc9bd7f4d00a9c2},
	{"CC", "gtsc-rc", "chaos2", 10558, 8350, 0x5b5b2879c64e30eb},
	{"CC", "gtsc-rc", "rollover3", 10728, 9362, 0xe014363909249ca1},
	{"CC", "gtsc-sc", "chaos1", 11523, 8932, 0xa64a790c4867bd0d},
	{"CC", "gtsc-sc", "chaos2", 11705, 8896, 0x30aa91f0bb8803ea},
	{"CC", "gtsc-sc", "rollover3", 12313, 10680, 0x23f87e02e8ec1ff5},
	{"CC", "tc-rc", "chaos1", 11730, 14696, 0x99500c35b7820316},
	{"CC", "tc-rc", "chaos2", 11715, 14654, 0xb167a12029be589b},
	{"CC", "tc-rc", "rollover3", 11746, 14628, 0xf48f3b4b1301f7b6},
	{"CC", "tc-sc", "chaos1", 13958, 15716, 0xfb677716fa7541cf},
	{"CC", "tc-sc", "chaos2", 14159, 15596, 0x1a5dc403748759dc},
	{"CC", "tc-sc", "rollover3", 14300, 15888, 0xc85a081ab7cbf7c2},
	{"CC", "bl-rc", "chaos1", 14731, 38126, 0xfa2774595d7790ad},
	{"CC", "bl-rc", "chaos2", 14887, 38156, 0xabc2a00bca72633b},
	{"CC", "bl-rc", "rollover3", 14911, 38140, 0x4396c79f335815d9},
	{"CC", "dir-rc", "chaos1", 10468, 7382, 0xaf80c0aed1e0bf05},
	{"CC", "dir-rc", "chaos2", 10348, 7264, 0xb9c208532d8b4f1f},
	{"CC", "dir-rc", "rollover3", 10826, 7470, 0x2bd88cf60d1cb69c},
	{"CC", "gtsc-rc-mshr2", "chaos1", 20506, 9528, 0xbb43ca6af2a6830b},
	{"CC", "gtsc-rc-mshr2", "chaos2", 18838, 9022, 0xa0dfdc51f472a90b},
	{"CC", "gtsc-rc-mshr2", "rollover3", 19858, 11048, 0xe66f5d8b541f80ed},
	{"CC", "tc-sc-mshr2", "chaos1", 34586, 30612, 0xc3ad7f82ead736c1},
	{"CC", "tc-sc-mshr2", "chaos2", 34880, 30698, 0x74a700727cde27c4},
	{"CC", "tc-sc-mshr2", "rollover3", 34312, 30326, 0x48225a71470a56bf},
	{"DLP", "gtsc-rc", "chaos1", 16016, 11792, 0xda4388f0a1ca015d},
	{"DLP", "gtsc-rc", "chaos2", 15551, 11804, 0xb77cda765bcb19bf},
	{"DLP", "gtsc-rc", "rollover3", 16123, 14494, 0xb86c4010f0ca6d5f},
	{"DLP", "gtsc-sc", "chaos1", 18470, 12370, 0x8b62399c2f4ad615},
	{"DLP", "gtsc-sc", "chaos2", 18773, 12522, 0xe312944d84a9612e},
	{"DLP", "gtsc-sc", "rollover3", 18802, 14824, 0x8e28e31fe4ca4773},
	{"DLP", "tc-rc", "chaos1", 17629, 20086, 0x44eb7fb9f8e274fd},
	{"DLP", "tc-rc", "chaos2", 17791, 20394, 0x6f37999f7b632806},
	{"DLP", "tc-rc", "rollover3", 18383, 20648, 0x41e19ea7ed3a860e},
	{"DLP", "tc-sc", "chaos1", 23625, 27250, 0xd6449dca5dc96fa7},
	{"DLP", "tc-sc", "chaos2", 23507, 26944, 0x9d6761801fd0057b},
	{"DLP", "tc-sc", "rollover3", 23173, 26982, 0xbe119b161f712767},
	{"DLP", "bl-rc", "chaos1", 20037, 43998, 0xc11e0644d00dbdb0},
	{"DLP", "bl-rc", "chaos2", 19797, 44016, 0xd6a67b8c9d8c3450},
	{"DLP", "bl-rc", "rollover3", 19787, 43980, 0x7987047331865df9},
	{"DLP", "dir-rc", "chaos1", 16130, 10294, 0xfaa0b2e580d40c72},
	{"DLP", "dir-rc", "chaos2", 16041, 10144, 0x47ad8e8fa10dd373},
	{"DLP", "dir-rc", "rollover3", 15340, 10106, 0xb74702403eb972af},
	{"DLP", "gtsc-rc-mshr2", "chaos1", 29187, 13408, 0xadbad04a096e413b},
	{"DLP", "gtsc-rc-mshr2", "chaos2", 28809, 13264, 0xa66dee5730a6eb41},
	{"DLP", "gtsc-rc-mshr2", "rollover3", 30554, 16674, 0x1be7f64731db6741},
	{"DLP", "tc-sc-mshr2", "chaos1", 48258, 40884, 0xd4b4650e9120bf25},
	{"DLP", "tc-sc-mshr2", "chaos2", 50204, 41838, 0x58704119dc0980b3},
	{"DLP", "tc-sc-mshr2", "rollover3", 48554, 41098, 0xb778fcf89579476},
	{"VPR", "gtsc-rc", "chaos1", 10384, 7208, 0x54615f792645c489},
	{"VPR", "gtsc-rc", "chaos2", 10430, 7262, 0x9c620100156ac8e5},
	{"VPR", "gtsc-rc", "rollover3", 10646, 8172, 0x3ba888eaab527911},
	{"VPR", "gtsc-sc", "chaos1", 10995, 7174, 0xae5a9b326ca5414b},
	{"VPR", "gtsc-sc", "chaos2", 10764, 7022, 0xeb848838ad4067a3},
	{"VPR", "gtsc-sc", "rollover3", 10920, 7858, 0x1dc32b7f625ea6b5},
	{"VPR", "tc-rc", "chaos1", 9492, 9674, 0xa3d57d6876e7b477},
	{"VPR", "tc-rc", "chaos2", 9479, 9718, 0xb4b944af095de038},
	{"VPR", "tc-rc", "rollover3", 9534, 9802, 0x6fccbad879093da7},
	{"VPR", "tc-sc", "chaos1", 13070, 11024, 0xc9bda2e553eb7e9e},
	{"VPR", "tc-sc", "chaos2", 12507, 10756, 0x28bb0480b199f486},
	{"VPR", "tc-sc", "rollover3", 12284, 10780, 0xfb4e4bf139b5bf95},
	{"VPR", "bl-rc", "chaos1", 14049, 27488, 0xa03ac8db4486d66c},
	{"VPR", "bl-rc", "chaos2", 14029, 27504, 0xce8103a6799c6bff},
	{"VPR", "bl-rc", "rollover3", 13854, 27432, 0xf0137d22248eb6a6},
	{"VPR", "dir-rc", "chaos1", 10991, 6192, 0xa6348d7d6578b346},
	{"VPR", "dir-rc", "chaos2", 10037, 5432, 0x3a1047f6b6d70473},
	{"VPR", "dir-rc", "rollover3", 10644, 6002, 0x658e4619f1a6bacf},
	{"VPR", "gtsc-rc-mshr2", "chaos1", 16737, 7806, 0x38bbb52177c8417a},
	{"VPR", "gtsc-rc-mshr2", "chaos2", 16427, 7566, 0xe2d2cc215315b6f7},
	{"VPR", "gtsc-rc-mshr2", "rollover3", 18061, 9280, 0xcc23566ef5661f88},
	{"VPR", "tc-sc-mshr2", "chaos1", 30029, 21972, 0x784cbdd0477cbbb1},
	{"VPR", "tc-sc-mshr2", "chaos2", 29860, 21772, 0x3994f773628dc09b},
	{"VPR", "tc-sc-mshr2", "rollover3", 30456, 21942, 0x8c62b3ecf71c9272},
	{"STN", "gtsc-rc", "chaos1", 12484, 9444, 0xe32edf85b025001f},
	{"STN", "gtsc-rc", "chaos2", 12629, 9422, 0x153a5562198261e2},
	{"STN", "gtsc-rc", "rollover3", 12470, 9932, 0x7c4e67e9467ceaf2},
	{"STN", "gtsc-sc", "chaos1", 13812, 9714, 0xbfc860e9f03c7fe2},
	{"STN", "gtsc-sc", "chaos2", 13657, 9684, 0x2eca49ab7a7ce4cd},
	{"STN", "gtsc-sc", "rollover3", 13831, 10254, 0x9353aae0a99c0c88},
	{"STN", "tc-rc", "chaos1", 12357, 11104, 0x93284922d88bfe3a},
	{"STN", "tc-rc", "chaos2", 12525, 11116, 0x65a8aeda0f1f18a4},
	{"STN", "tc-rc", "rollover3", 12423, 11142, 0x4a153d279c1ab6db},
	{"STN", "tc-sc", "chaos1", 14595, 11224, 0xe0462daa153aa12c},
	{"STN", "tc-sc", "chaos2", 14452, 11170, 0xd75bb1f9327642c3},
	{"STN", "tc-sc", "rollover3", 14211, 11088, 0xb5179952fdf1a22c},
	{"STN", "bl-rc", "chaos1", 15099, 21962, 0x8c4c941200f5e331},
	{"STN", "bl-rc", "chaos2", 15056, 21944, 0x6cac2d97f33401c0},
	{"STN", "bl-rc", "rollover3", 15401, 21942, 0x16a75b42cbe60e64},
	{"STN", "dir-rc", "chaos1", 13889, 9482, 0xb97dc24f3349c0da},
	{"STN", "dir-rc", "chaos2", 13828, 10140, 0x1f6c448133ffca7c},
	{"STN", "dir-rc", "rollover3", 13235, 9064, 0xa68c91249be5931c},
	{"STN", "gtsc-rc-mshr2", "chaos1", 14816, 9426, 0x7df6f2f5147a909b},
	{"STN", "gtsc-rc-mshr2", "chaos2", 14596, 9418, 0x98b991a0c8b016e9},
	{"STN", "gtsc-rc-mshr2", "rollover3", 15374, 10000, 0x269e1842fb114f12},
	{"STN", "tc-sc-mshr2", "chaos1", 18301, 11908, 0x6715ae81edb7c8b5},
	{"STN", "tc-sc-mshr2", "chaos2", 18726, 12016, 0xcf096908b6249936},
	{"STN", "tc-sc-mshr2", "rollover3", 17981, 11780, 0x454ca79b7f6613aa},
	{"BFS", "gtsc-rc", "chaos1", 10205, 9226, 0x624d5c02ef3dd026},
	{"BFS", "gtsc-rc", "chaos2", 10638, 9628, 0x93169dd0166ea1c0},
	{"BFS", "gtsc-rc", "rollover3", 10371, 11224, 0x4d7c300aa1da03d9},
	{"BFS", "gtsc-sc", "chaos1", 12802, 9802, 0x128f6058fbe5642},
	{"BFS", "gtsc-sc", "chaos2", 12838, 10094, 0x5fb9d6ce8771492b},
	{"BFS", "gtsc-sc", "rollover3", 13199, 12308, 0x1ad5e7d0e9914ce},
	{"BFS", "tc-rc", "chaos1", 12156, 23368, 0xb4dc4df6614158c1},
	{"BFS", "tc-rc", "chaos2", 12112, 23234, 0xe77942a4ccfa06f0},
	{"BFS", "tc-rc", "rollover3", 12035, 23176, 0xaaf699ca8ac8b24e},
	{"BFS", "tc-sc", "chaos1", 17447, 30420, 0x8b067f20282588aa},
	{"BFS", "tc-sc", "chaos2", 16751, 30114, 0x7d81a5dd3bd0adf1},
	{"BFS", "tc-sc", "rollover3", 17845, 30652, 0x4dfa02d712f4e65e},
	{"BFS", "bl-rc", "chaos1", 15949, 50280, 0xd75597a75033f0d2},
	{"BFS", "bl-rc", "chaos2", 15933, 50270, 0x5822d499cec01e6e},
	{"BFS", "bl-rc", "rollover3", 16126, 50326, 0xe3edfbcc1ba28c32},
	{"BFS", "dir-rc", "chaos1", 9861, 6846, 0x23845de2141e3cfa},
	{"BFS", "dir-rc", "chaos2", 9683, 6812, 0x48b36a02fa52aa87},
	{"BFS", "dir-rc", "rollover3", 9486, 6764, 0x69f68e987ea2ec6c},
	{"BFS", "gtsc-rc-mshr2", "chaos1", 27913, 11354, 0x9ce8def49e4fee81},
	{"BFS", "gtsc-rc-mshr2", "chaos2", 28596, 11216, 0xdeb300f35a3c2b8d},
	{"BFS", "gtsc-rc-mshr2", "rollover3", 31448, 17318, 0x49d92a8fceea77c0},
	{"BFS", "tc-sc-mshr2", "chaos1", 57087, 45984, 0x2c250d542d4f26b},
	{"BFS", "tc-sc-mshr2", "chaos2", 57392, 45920, 0xfe642b78f67538fe},
	{"BFS", "tc-sc-mshr2", "rollover3", 59279, 46766, 0xc98f56782a031412},
}

// chaosTable walks the chaos machine list — every coherence workload
// under every chaos config and plan — and pins each machine to the
// chaos row at its position.
func chaosTable(t *testing.T) []tableRow {
	t.Helper()
	var rows []tableRow
	for _, wl := range workload.CoherenceSet() {
		for _, label := range chaosConfigs {
			for _, p := range chaosPlans {
				cfg, ok := goldenConfig(label)
				if !ok {
					t.Fatalf("unknown config label %q", label)
				}
				cfg.Mem.Fault = p.plan
				rows = append(rows, tableRow{
					name: wl.Name + "/" + label + "/" + p.label,
					key:  fmt.Sprintf("%q, %q, %q", wl.Name, label, p.label),
					wl:   wl, cfg: cfg,
				})
			}
		}
	}
	pins := make([]tableRow, len(chaosRows))
	for i, r := range chaosRows {
		pins[i] = tableRow{key: fmt.Sprintf("%q, %q, %q", r.workload, r.config, r.plan), cycles: r.cycles, flits: r.flits, hash: r.hash}
	}
	return pinTable(t, "chaosRows", rows, pins)
}

// TestChaosFingerprintsBitIdentical is TestOptimizedCycleLoopBitIdentical
// over the chaos table.
func TestChaosFingerprintsBitIdentical(t *testing.T) {
	checkTable(t, "chaosRows", chaosTable(t), 144) // coherence six x 8 configs x 3 plans
}
