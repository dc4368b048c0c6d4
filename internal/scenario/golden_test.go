package scenario

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"rdmamon/internal/faults"
	"rdmamon/internal/sim"
)

// digestPlan is the FNV-64a digest of a fault plan, the same formula
// the faults golden tests use — so scenario digests and legacy
// RandomPlan digests are directly comparable. It hashes p's %+v
// rendering in the layout the goldens were captured with, when
// LinkFault still had a Dup field (always zero), so the goldens keep
// pinning the values.
func digestPlan(p faults.Plan) uint64 {
	h := fnv.New64a()
	io.WriteString(h, linkFaultLayout.ReplaceAllString(fmt.Sprintf("%+v", p), "$1 Dup:0 DelayProb:"))
	return h.Sum64()
}

var linkFaultLayout = regexp.MustCompile(`(Drop:\S+) DelayProb:`)

// scenarioDigest folds the first points seeds' plan digests
// (default-seed base) into one pinned value.
func scenarioDigest(cp *Compiled, points int) uint64 {
	h := fnv.New64a()
	base := cp.BaseSeed(0)
	for i := 0; i < points; i++ {
		seed := cp.SeedAt(base, i)
		fmt.Fprintf(h, "%d:%d;", seed, digestPlan(cp.Plan(seed)))
	}
	return h.Sum64()
}

// TestChaosScenarioPlanEquivalence: the builtin chaos scenario
// (examples/scenarios/chaos.yaml) compiles to
// exactly the fault plans the legacy Go-coded `-exp chaos` drew —
// bit-identical structs, not just equal digests — in both full and
// quick mode, across 50 seeds.
func TestChaosScenarioPlanEquivalence(t *testing.T) {
	for _, mode := range []struct {
		quick   bool
		horizon sim.Time
	}{{false, 20 * sim.Second}, {true, 10 * sim.Second}} {
		cp, err := BuiltinChaos().Compile(mode.quick)
		if err != nil {
			t.Fatal(err)
		}
		legacy := faults.ChaosConfig{Backends: 8, Horizon: mode.horizon}
		for seed := int64(0); seed < 50; seed++ {
			want := faults.RandomPlan(seed, legacy)
			got := cp.Plan(seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("quick=%v seed %d: scenario plan diverged from legacy RandomPlan\n got %+v\nwant %+v",
					mode.quick, seed, got, want)
			}
		}
	}
}

// TestHAScenarioPlanEquivalence: same contract for the HA scenario —
// including the arithmetically-derived front-end IDs and witness,
// which must keep matching the golden ha-20s/ha-10s configs in
// internal/faults.
func TestHAScenarioPlanEquivalence(t *testing.T) {
	for _, mode := range []struct {
		quick   bool
		horizon sim.Time
	}{{false, 20 * sim.Second}, {true, 10 * sim.Second}} {
		cp, err := BuiltinHA().Compile(mode.quick)
		if err != nil {
			t.Fatal(err)
		}
		legacy := faults.ChaosConfig{
			Backends: 8, Horizon: mode.horizon,
			FrontEnds: []int{0, 9, 10}, Witness: 11,
		}
		for seed := int64(0); seed < 50; seed++ {
			want := faults.RandomPlan(seed, legacy)
			if got := cp.Plan(seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("quick=%v seed %d: scenario plan diverged from legacy RandomPlan\n got %+v\nwant %+v",
					mode.quick, seed, got, want)
			}
		}
	}
}

// TestAAScenarioPlanEquivalence: same contract for the active-active
// scenario — four front-ends, the witness after them, and the two
// claim-stall windows the legacy Go-coded `-exp aa` added to its plan.
func TestAAScenarioPlanEquivalence(t *testing.T) {
	for _, mode := range []struct {
		quick   bool
		horizon sim.Time
	}{{false, 20 * sim.Second}, {true, 10 * sim.Second}} {
		cp, err := BuiltinAA().Compile(mode.quick)
		if err != nil {
			t.Fatal(err)
		}
		legacy := faults.ChaosConfig{
			Backends: 8, Horizon: mode.horizon,
			FrontEnds: []int{0, 9, 10, 11}, Witness: 12, ClaimStalls: 2,
		}
		for seed := int64(0); seed < 50; seed++ {
			want := faults.RandomPlan(seed, legacy)
			if got := cp.Plan(seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("quick=%v seed %d: scenario plan diverged from legacy RandomPlan\n got %+v\nwant %+v",
					mode.quick, seed, got, want)
			}
		}
	}
}

// TestScenarioGoldenDigests pins the compiled fault-plan streams of
// every curated scenario (full mode, default seed base, the scenario's
// own seed count). A failure means seeded replay of published scenario
// runs silently changed — either the plan compiler's RNG stream
// discipline broke, or a scenario file was edited without re-pinning.
func TestScenarioGoldenDigests(t *testing.T) {
	golden := map[string]uint64{
		"aa.yaml":              0x3d104d2f2cb3cd0c,
		"chaos.yaml":           0x67d2e143968a1bbe,
		"ha.yaml":              0xa7562b232b3a2ced,
		"hetero-dispatch.yaml": 0x79970a2f5077f5d6,
		"quickstart.yaml":      0x15aba4c3c5363a28,
		"stagger.yaml":         0x298b9295a91748ad,
	}
	files, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no curated scenarios found: %v", err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden digest pinned — add it here", name)
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cp, err := s.Compile(false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := scenarioDigest(cp, cp.Points(0)); got != want {
			t.Errorf("%s: plan digest 0x%016x, want golden 0x%016x — seeded replay changed", name, got, want)
		}
	}
}
