package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/sim"
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
// forced rollovers (DESIGN.md §7). Regenerate with
// `go run ./internal/sim/goldengen` ONLY when the simulated machine's
// intended behaviour changes.
type chaosRow struct {
	workload string
	config   string // goldenConfig label
	plan     string // chaosPlan label
	cycles   uint64
	flits    uint64
	hash     uint64
}

// chaosPlan returns the fault plan a chaos row names: fault.Chaos at
// seeds 1 and 2, and fault.ChaosRollover (forced §V-D resets on top)
// at seed 3.
func chaosPlan(label string) (fault.Config, bool) {
	switch label {
	case "chaos1":
		return fault.Chaos(1), true
	case "chaos2":
		return fault.Chaos(2), true
	case "rollover3":
		return fault.ChaosRollover(3), true
	}
	return fault.Config{}, false
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
	{"BH", "bl-rc", "chaos1", 8484, 8732, 0xa15ae123b8671a71},
	{"BH", "bl-rc", "chaos2", 8546, 8696, 0xa262dfd089a3f83d},
	{"BH", "bl-rc", "rollover3", 8853, 8794, 0xe0bd0d259800e123},
	{"BH", "dir-rc", "chaos1", 9379, 5136, 0xa7632a89c4b6f9e7},
	{"BH", "dir-rc", "chaos2", 8924, 5080, 0x15e95254d53136dc},
	{"BH", "dir-rc", "rollover3", 9327, 5222, 0xa3d224c650595fcf},
	{"CC", "gtsc-rc", "chaos1", 11282, 8820, 0x4bc9bd7f4d00a9c2},
	{"CC", "gtsc-rc", "chaos2", 10558, 8350, 0x5b5b2879c64e30eb},
	{"CC", "gtsc-rc", "rollover3", 10728, 9362, 0xe014363909249ca1},
	{"CC", "gtsc-sc", "chaos1", 11523, 8932, 0xa64a790c4867bd0d},
	{"CC", "gtsc-sc", "chaos2", 11705, 8896, 0x30aa91f0bb8803ea},
	{"CC", "gtsc-sc", "rollover3", 12313, 10680, 0x23f87e02e8ec1ff5},
	{"CC", "tc-rc", "chaos1", 11730, 14696, 0x99500c35b7820316},
	{"CC", "tc-rc", "chaos2", 11715, 14654, 0xb167a12029be589b},
	{"CC", "tc-rc", "rollover3", 11746, 14628, 0xf48f3b4b1301f7b6},
	{"CC", "bl-rc", "chaos1", 14731, 38126, 0xfa2774595d7790ad},
	{"CC", "bl-rc", "chaos2", 14887, 38156, 0xabc2a00bca72633b},
	{"CC", "bl-rc", "rollover3", 14911, 38140, 0x4396c79f335815d9},
	{"CC", "dir-rc", "chaos1", 10468, 7382, 0xaf80c0aed1e0bf05},
	{"CC", "dir-rc", "chaos2", 10348, 7264, 0xb9c208532d8b4f1f},
	{"CC", "dir-rc", "rollover3", 10826, 7470, 0x2bd88cf60d1cb69c},
	{"DLP", "gtsc-rc", "chaos1", 16016, 11792, 0xda4388f0a1ca015d},
	{"DLP", "gtsc-rc", "chaos2", 15551, 11804, 0xb77cda765bcb19bf},
	{"DLP", "gtsc-rc", "rollover3", 16123, 14494, 0xb86c4010f0ca6d5f},
	{"DLP", "gtsc-sc", "chaos1", 18470, 12370, 0x8b62399c2f4ad615},
	{"DLP", "gtsc-sc", "chaos2", 18773, 12522, 0xe312944d84a9612e},
	{"DLP", "gtsc-sc", "rollover3", 18802, 14824, 0x8e28e31fe4ca4773},
	{"DLP", "tc-rc", "chaos1", 17629, 20086, 0x44eb7fb9f8e274fd},
	{"DLP", "tc-rc", "chaos2", 17791, 20394, 0x6f37999f7b632806},
	{"DLP", "tc-rc", "rollover3", 18383, 20648, 0x41e19ea7ed3a860e},
	{"DLP", "bl-rc", "chaos1", 20037, 43998, 0xc11e0644d00dbdb0},
	{"DLP", "bl-rc", "chaos2", 19797, 44016, 0xd6a67b8c9d8c3450},
	{"DLP", "bl-rc", "rollover3", 19787, 43980, 0x7987047331865df9},
	{"DLP", "dir-rc", "chaos1", 16130, 10294, 0xfaa0b2e580d40c72},
	{"DLP", "dir-rc", "chaos2", 16041, 10144, 0x47ad8e8fa10dd373},
	{"DLP", "dir-rc", "rollover3", 15340, 10106, 0xb74702403eb972af},
	{"VPR", "gtsc-rc", "chaos1", 10384, 7208, 0x54615f792645c489},
	{"VPR", "gtsc-rc", "chaos2", 10430, 7262, 0x9c620100156ac8e5},
	{"VPR", "gtsc-rc", "rollover3", 10646, 8172, 0x3ba888eaab527911},
	{"VPR", "gtsc-sc", "chaos1", 10995, 7174, 0xae5a9b326ca5414b},
	{"VPR", "gtsc-sc", "chaos2", 10764, 7022, 0xeb848838ad4067a3},
	{"VPR", "gtsc-sc", "rollover3", 10920, 7858, 0x1dc32b7f625ea6b5},
	{"VPR", "tc-rc", "chaos1", 9492, 9674, 0xa3d57d6876e7b477},
	{"VPR", "tc-rc", "chaos2", 9479, 9718, 0xb4b944af095de038},
	{"VPR", "tc-rc", "rollover3", 9534, 9802, 0x6fccbad879093da7},
	{"VPR", "bl-rc", "chaos1", 14049, 27488, 0xa03ac8db4486d66c},
	{"VPR", "bl-rc", "chaos2", 14029, 27504, 0xce8103a6799c6bff},
	{"VPR", "bl-rc", "rollover3", 13854, 27432, 0xf0137d22248eb6a6},
	{"VPR", "dir-rc", "chaos1", 10991, 6192, 0xa6348d7d6578b346},
	{"VPR", "dir-rc", "chaos2", 10037, 5432, 0x3a1047f6b6d70473},
	{"VPR", "dir-rc", "rollover3", 10644, 6002, 0x658e4619f1a6bacf},
	{"STN", "gtsc-rc", "chaos1", 12484, 9444, 0xe32edf85b025001f},
	{"STN", "gtsc-rc", "chaos2", 12629, 9422, 0x153a5562198261e2},
	{"STN", "gtsc-rc", "rollover3", 12470, 9932, 0x7c4e67e9467ceaf2},
	{"STN", "gtsc-sc", "chaos1", 13812, 9714, 0xbfc860e9f03c7fe2},
	{"STN", "gtsc-sc", "chaos2", 13657, 9684, 0x2eca49ab7a7ce4cd},
	{"STN", "gtsc-sc", "rollover3", 13831, 10254, 0x9353aae0a99c0c88},
	{"STN", "tc-rc", "chaos1", 12357, 11104, 0x93284922d88bfe3a},
	{"STN", "tc-rc", "chaos2", 12525, 11116, 0x65a8aeda0f1f18a4},
	{"STN", "tc-rc", "rollover3", 12423, 11142, 0x4a153d279c1ab6db},
	{"STN", "bl-rc", "chaos1", 15099, 21962, 0x8c4c941200f5e331},
	{"STN", "bl-rc", "chaos2", 15056, 21944, 0x6cac2d97f33401c0},
	{"STN", "bl-rc", "rollover3", 15401, 21942, 0x16a75b42cbe60e64},
	{"STN", "dir-rc", "chaos1", 13889, 9482, 0xb97dc24f3349c0da},
	{"STN", "dir-rc", "chaos2", 13828, 10140, 0x1f6c448133ffca7c},
	{"STN", "dir-rc", "rollover3", 13235, 9064, 0xa68c91249be5931c},
	{"BFS", "gtsc-rc", "chaos1", 10205, 9226, 0x624d5c02ef3dd026},
	{"BFS", "gtsc-rc", "chaos2", 10638, 9628, 0x93169dd0166ea1c0},
	{"BFS", "gtsc-rc", "rollover3", 10371, 11224, 0x4d7c300aa1da03d9},
	{"BFS", "gtsc-sc", "chaos1", 12802, 9802, 0x128f6058fbe5642},
	{"BFS", "gtsc-sc", "chaos2", 12838, 10094, 0x5fb9d6ce8771492b},
	{"BFS", "gtsc-sc", "rollover3", 13199, 12308, 0x1ad5e7d0e9914ce},
	{"BFS", "tc-rc", "chaos1", 12156, 23368, 0xb4dc4df6614158c1},
	{"BFS", "tc-rc", "chaos2", 12112, 23234, 0xe77942a4ccfa06f0},
	{"BFS", "tc-rc", "rollover3", 12035, 23176, 0xaaf699ca8ac8b24e},
	{"BFS", "bl-rc", "chaos1", 15949, 50280, 0xd75597a75033f0d2},
	{"BFS", "bl-rc", "chaos2", 15933, 50270, 0x5822d499cec01e6e},
	{"BFS", "bl-rc", "rollover3", 16126, 50326, 0xe3edfbcc1ba28c32},
	{"BFS", "dir-rc", "chaos1", 9861, 6846, 0x23845de2141e3cfa},
	{"BFS", "dir-rc", "chaos2", 9683, 6812, 0x48b36a02fa52aa87},
	{"BFS", "dir-rc", "rollover3", 9486, 6764, 0x69f68e987ea2ec6c},
}

// chaosRowConfig builds the machine for one chaos row.
func chaosRowConfig(t *testing.T, row chaosRow) (sim.Config, *workload.Workload) {
	t.Helper()
	wl, ok := workload.ByName(row.workload)
	if !ok {
		t.Fatalf("unknown workload %q", row.workload)
	}
	cfg, ok := goldenConfig(row.config)
	if !ok {
		t.Fatalf("unknown config label %q", row.config)
	}
	plan, ok := chaosPlan(row.plan)
	if !ok {
		t.Fatalf("unknown plan label %q", row.plan)
	}
	cfg.Mem.Fault = plan
	return cfg, wl
}

// TestChaosFingerprintsBitIdentical runs every chaos row and compares
// its cycles, flits and full stats fingerprint with the table.
func TestChaosFingerprintsBitIdentical(t *testing.T) {
	if len(chaosRows) != 90 {
		t.Fatalf("chaos table has %d rows, want 90 (coherence six x 5 configs x 3 plans)", len(chaosRows))
	}
	for _, row := range chaosRows {
		row := row
		t.Run(row.workload+"/"+row.config+"/"+row.plan, func(t *testing.T) {
			t.Parallel()
			cfg, wl := chaosRowConfig(t, row)
			run, err := wl.Build(1).Run(cfg)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if run.Cycles != row.cycles {
				t.Errorf("cycles = %d, golden %d", run.Cycles, row.cycles)
			}
			if got := run.NoC.TotalFlits(); got != row.flits {
				t.Errorf("total flits = %d, golden %d", got, row.flits)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", *run)
			if got := h.Sum64(); got != row.hash {
				t.Errorf("stats.Run fingerprint = %#x, golden %#x", got, row.hash)
			}
		})
	}
}

// TestKillResumeChaosEquivalence is TestKillResumeGoldenEquivalence
// for the chaos rows. Fault shims hold messages and keep their own
// clocks, and the injector carries RNG streams and a rollover
// schedule; all of that must survive a pause at an arbitrary cycle, a
// round trip through the checkpoint codec, and a digest-verified
// replay on a fresh machine, and the resumed run must finish on the
// row's fingerprint.
func TestKillResumeChaosEquivalence(t *testing.T) {
	for _, row := range chaosRows {
		row := row
		t.Run(row.workload+"/"+row.config+"/"+row.plan, func(t *testing.T) {
			t.Parallel()
			cfg, wl := chaosRowConfig(t, row)
			// Fuzzed but reproducible pause cycle inside the run.
			pause := 1 + row.hash%row.cycles

			e1 := checkpoint.NewExecution(cfg, wl.Build(1), row.workload, 1)
			_, paused, err := e1.RunUntil(context.Background(), pause)
			if err != nil {
				t.Fatalf("run to pause cycle %d failed: %v", pause, err)
			}
			if !paused {
				t.Fatalf("execution did not pause at cycle %d", pause)
			}
			var buf bytes.Buffer
			if err := e1.Checkpoint().Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			ck, err := checkpoint.Decode(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			e2, err := checkpoint.ResumeExecution(ck, cfg, wl.Build(1), row.workload, 1)
			if err != nil {
				t.Fatalf("resume (verified replay to cycle %d): %v", ck.Cycle, err)
			}
			run, err := e2.Run(context.Background())
			if err != nil {
				t.Fatalf("post-resume run failed: %v", err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", *run)
			if got := h.Sum64(); got != row.hash {
				t.Errorf("resumed-run fingerprint = %#x, golden %#x (pause at %d)", got, row.hash, pause)
			}
		})
	}
}
