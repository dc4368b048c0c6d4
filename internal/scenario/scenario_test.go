package scenario

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"rdmamon/examples/scenarios"
	"rdmamon/internal/cluster"
	"rdmamon/internal/sim"
)

// TestParseRejects: malformed input is an error (never a panic), and
// the error names the offending field.
func TestParseRejects(t *testing.T) {
	templates := "name: x\nhorizon: 2s\nfleet:\n  backends: 65\n  templates:\n"
	for i := range 65 {
		templates += fmt.Sprintf("    - name: t%d\n      weight: 1\n", i)
	}
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"empty", "", "empty document"},
		{"missing name", "horizon: 2s\n", "name: required"},
		{"missing horizon", "name: x\n", "horizon: required"},
		{"malformed duration", "name: x\nhorizon: banana\n", "invalid duration"},
		{"negative duration", "name: x\nhorizon: -2s\n", "negative duration"},
		{"tab indent", "name: x\n\thorizon: 2s\n", "tab in indentation"},
		{"duplicate key", "name: x\nname: y\nhorizon: 2s\n", "duplicate key"},
		{"unknown key", "name: x\nhorizon: 2s\nbogus: 1\n", `unknown key "bogus"`},
		{"unknown scheme", "name: x\nhorizon: 2s\nscheme: carrier-pigeon\n", "scheme: unknown"},
		{"unknown policy", "name: x\nhorizon: 2s\npolicy: coin-flip\n", "policy: unknown"},
		{"negative weight",
			"name: x\nhorizon: 2s\nfleet:\n  backends: 4\n  templates:\n    - name: a\n      weight: -1\n",
			"weight: must be positive"},
		{"zero weight",
			"name: x\nhorizon: 2s\nfleet:\n  backends: 4\n  templates:\n    - name: a\n      weight: 0\n",
			"weight: must be positive"},
		{"duplicate template",
			"name: x\nhorizon: 2s\nfleet:\n  backends: 4\n  templates:\n    - name: a\n      weight: 1\n    - name: a\n      weight: 1\n",
			"duplicate template"},
		{"unknown action",
			"name: x\nhorizon: 2s\nevents:\n  - at: 1s\n    action: explode\n    node: 1\n    duration: 1s\n",
			`action: unknown "explode"`},
		{"event out of order",
			"name: x\nhorizon: 4s\nevents:\n  - at: 2s\n    action: crash\n    node: 1\n    duration: 1s\n  - at: 1s\n    action: crash\n    node: 2\n    duration: 1s\n",
			"time-ordered"},
		{"node and pick",
			"name: x\nhorizon: 2s\nevents:\n  - at: 1s\n    action: crash\n    node: 1\n    pick: random\n    duration: 500ms\n",
			"mutually exclusive"},
		{"no victim",
			"name: x\nhorizon: 2s\nevents:\n  - at: 1s\n    action: crash\n    duration: 500ms\n",
			"one of node or pick"},
		{"node outside fleet",
			"name: x\nhorizon: 2s\nfleet:\n  backends: 2\nevents:\n  - at: 1s\n    action: crash\n    node: 7\n    duration: 500ms\n",
			"outside the fleet"},
		{"drop on crash",
			"name: x\nhorizon: 2s\nevents:\n  - at: 1s\n    action: crash\n    node: 1\n    duration: 500ms\n    drop: 0.5\n",
			"only meaningful for link"},
		{"checks with assertions",
			"name: x\nhorizon: 2s\nfailover: true\nchecks: chaos\nassertions:\n  - metric: served\n    min: 1\n",
			"not supported with checks"},
		{"chaos without failover", "name: x\nhorizon: 2s\nchecks: chaos\n", "requires failover"},
		{"ha without replicas", "name: x\nhorizon: 2s\nchecks: ha\n", "replicas >= 2"},
		{"aa without replicas", "name: x\nhorizon: 2s\nchecks: aa\n", "aa requires replicas >= 2"},
		{"fe stress without replicas",
			"name: x\nhorizon: 2s\nstress:\n  fe_crashes: 1\n",
			"need replicas >= 2"},
		{"less-than self",
			"name: x\nhorizon: 2s\nassertions:\n  - metric: served\n    less_than: base\n",
			"compares a variant to itself"},
		{"assertion without bound",
			"name: x\nhorizon: 2s\nassertions:\n  - metric: served\n",
			"one of min, max or less_than"},
		{"min above max",
			"name: x\nhorizon: 2s\nassertions:\n  - metric: served\n    min: 5\n    max: 2\n",
			"min 5 exceeds max 2"},
		{"stagger past horizon",
			"name: x\nhorizon: 1s\nfleet:\n  backends: 8\nstagger:\n  offset: 200ms\n",
			"past the horizon"},
		{"invalid json", `{"name": `, "invalid JSON"},
		{"fleet not a mapping", "name: x\nhorizon: 2s\nfleet: 3\n", "fleet: expected a mapping"},
		{"events not a sequence", "name: x\nhorizon: 2s\nevents: x\n", "events: expected a sequence"},
		{"fractional integer", "name: x\nhorizon: 2s\nseeds: 1.5\n", `seeds: invalid integer "1.5"`},
		{"bad boolean", "name: x\nhorizon: 2s\nfailover: yes\n", "failover: expected true or false"},
		{"nan", "name: x\nhorizon: 2s\ngamma: nan\n", "gamma: invalid number"},
		{"list for a scalar", "name: x\nhorizon: [1s]\n", "horizon: expected a"},
		{"unknown event key",
			"name: x\nhorizon: 2s\nevents:\n  - at: 1s\n    action: crash\n    node: 1\n    duration: 1s\n    bogus: 1\n",
			`events[0]: unknown key "bogus"`},
		{"too many templates", templates, "exceeds the 64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("accepted invalid scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseExamples: every curated scenario parses and validates.
func TestParseExamples(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil || len(files) < 4 {
		t.Fatalf("want >= 4 curated scenarios, found %v (err %v)", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
			continue
		}
		// Round-trip through the canonical encoder.
		s2, err := Parse(s.encode())
		if err != nil {
			t.Errorf("%s: re-parse of encode failed: %v", filepath.Base(f), err)
			continue
		}
		if !reflect.DeepEqual(s, s2) {
			t.Errorf("%s: encode/Parse round-trip diverged:\n%+v\nvs\n%+v", filepath.Base(f), s, s2)
		}
	}
}

// TestExamplesMatchBuiltins: the embedded set the builtins are parsed
// from is every examples/scenarios/*.yaml on disk, byte for byte, so
// `rmbench -scenario examples/scenarios/chaos.yaml` is `-exp chaos`,
// not an approximation of it.
func TestExamplesMatchBuiltins(t *testing.T) {
	disk, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := fs.Glob(scenarios.FS, "*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(disk) != len(embedded) || len(disk) < 2 {
		t.Fatalf("%d files on disk, %d embedded", len(disk), len(embedded))
	}
	for i, path := range disk {
		if filepath.Base(path) != embedded[i] {
			t.Fatalf("file %d: %s on disk, %s embedded", i, filepath.Base(path), embedded[i])
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scenarios.FS.ReadFile(embedded[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: embedded copy differs from the file on disk", embedded[i])
		}
	}
}

// TestJSONEquivalent: the JSON form decodes to the same scenario as
// the YAML form.
func TestJSONEquivalent(t *testing.T) {
	yamlSrc := "name: j\nhorizon: 2s\npoll: 50ms\nfleet:\n  backends: 4\nassertions:\n  - metric: served\n    min: 10\n"
	jsonSrc := `{"name": "j", "horizon": "2s", "poll": "50ms",
		"fleet": {"backends": 4},
		"assertions": [{"metric": "served", "min": 10}]}`
	a, err := Parse([]byte(yamlSrc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(jsonSrc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("YAML and JSON decode diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestExpandWeights pins the 70/30 split the hetero study relies on.
func TestExpandWeights(t *testing.T) {
	cases := []struct {
		weights []float64
		n       int
		want    []int
	}{
		{[]float64{7, 3}, 10, []int{7, 3}},
		{[]float64{1, 1, 1}, 8, []int{3, 3, 2}}, // remainder 2 goes to the two lowest indices
		{[]float64{1}, 5, []int{5}},
		{[]float64{0.5, 0.5}, 3, []int{2, 1}},
	}
	for _, tc := range cases {
		got := ExpandWeights(tc.weights, tc.n)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ExpandWeights(%v, %d) = %v, want %v", tc.weights, tc.n, got, tc.want)
		}
	}
}

// TestFrontEndIDsMatchCluster pins the arithmetic the compiler uses to
// place HA front-ends and the witness (so chaos configs can be built
// without instantiating a cluster) against the real cluster layout.
func TestFrontEndIDsMatchCluster(t *testing.T) {
	for _, s := range []*Scenario{BuiltinHA(), BuiltinAA()} {
		cp, err := s.Compile(false)
		if err != nil {
			t.Fatal(err)
		}
		c := cluster.New(cp.ClusterConfig(1, ""))
		if got, want := c.FrontEndIDs(), s.FrontEndIDs(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: front-end IDs: cluster %v, scenario %v", s.Name, got, want)
		}
		if c.Witness == nil || c.Witness.ID != s.WitnessID() {
			t.Errorf("%s: witness ID: cluster %+v, scenario %d", s.Name, c.Witness, s.WitnessID())
		}
	}
}

// TestCompileHeteroFleet: template expansion produces contiguous
// ranges and a full spec list.
func TestCompileHeteroFleet(t *testing.T) {
	s := &Scenario{
		Name: "h", Horizon: 2 * sim.Second,
		Fleet: Fleet{Backends: 10, Templates: []Template{
			{Name: "fast", Weight: 7, CPUs: 4},
			{Name: "slow", Weight: 3, CPUs: 1, NICLatency: 200 * sim.Microsecond},
		}},
	}
	cp, err := s.Compile(false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp.Counts, []int{7, 3}) {
		t.Fatalf("counts %v", cp.Counts)
	}
	if !reflect.DeepEqual(cp.Ranges, [][2]int{{1, 7}, {8, 10}}) {
		t.Fatalf("ranges %v", cp.Ranges)
	}
	if len(cp.Specs) != 10 {
		t.Fatalf("specs %d", len(cp.Specs))
	}
	if cp.TemplateOf(1) != "fast" || cp.TemplateOf(7) != "fast" || cp.TemplateOf(8) != "slow" || cp.TemplateOf(10) != "slow" {
		t.Fatalf("template mapping wrong: %v", cp.Specs)
	}
	if cp.Specs[9].NICLatency != 200*sim.Microsecond || cp.Specs[0].CPUs != 4 {
		t.Fatalf("spec fields lost: %+v", cp.Specs)
	}
}

// TestCompileQuickOverrides: -quick swaps in the quick horizon, repin
// and client count.
func TestCompileQuickOverrides(t *testing.T) {
	s := BuiltinChaos()
	full, err := s.Compile(false)
	if err != nil {
		t.Fatal(err)
	}
	quick, err := s.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	if full.Horizon != 20*sim.Second || quick.Horizon != 10*sim.Second {
		t.Fatalf("horizons %v/%v", full.Horizon, quick.Horizon)
	}
	if full.MRRepin != 1500*sim.Millisecond || quick.MRRepin != 800*sim.Millisecond {
		t.Fatalf("repin %v/%v", full.MRRepin, quick.MRRepin)
	}
	if full.Clients != 48 || quick.Clients != 32 {
		t.Fatalf("clients %d/%d", full.Clients, quick.Clients)
	}
}

// TestParseInputCap: the 1 MiB input cap holds for JSON as for YAML.
func TestParseInputCap(t *testing.T) {
	pad := strings.Repeat("a", 1<<20)
	for _, src := range []string{
		`{"name": "x", "horizon": "1s", "description": "` + pad + `"}`,
		"name: x\nhorizon: 1s\ndescription: " + pad + "\n",
	} {
		if _, err := Parse([]byte(src)); err == nil || !strings.Contains(err.Error(), "1MiB cap") {
			t.Errorf("%.12q (%d bytes): got %v, want the 1MiB cap", src, len(src), err)
		}
	}
}

// TestValidateCapsAssertions: Validate holds a Go-built scenario to the
// assertion cap a parsed one is held to.
func TestValidateCapsAssertions(t *testing.T) {
	one := 1.0
	s := &Scenario{Name: "x", Horizon: sim.Second}
	for range 65 {
		s.Assertions = append(s.Assertions, Assertion{Metric: "served", Min: &one})
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "assertions: 65 exceeds the 64 cap") {
		t.Fatalf("65 assertions: got %v, want the 64 cap", err)
	}
	s.Assertions = s.Assertions[:64]
	if err := s.Validate(); err != nil {
		t.Fatalf("64 assertions: %v", err)
	}
}

// TestSchemaTags: every field reachable from Scenario carries exactly
// one scn key, in lower snake case and unique within its struct; the
// reflective codec would skip an untagged field without a word. Each
// struct's first field is a scalar, which the encoder always writes so
// an all-zero block round-trips.
func TestSchemaTags(t *testing.T) {
	keyRE := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		keys := map[string]bool{}
		for i := range typ.NumField() {
			f := typ.Field(i)
			key := f.Tag.Get("scn")
			switch {
			case strings.Count(string(f.Tag), `scn:"`) != 1 || !keyRE.MatchString(key):
				t.Errorf("%s.%s: tag %q, want exactly one scn key matching %s", typ.Name(), f.Name, f.Tag, keyRE)
			case keys[key]:
				t.Errorf("%s.%s: duplicate key %q", typ.Name(), f.Name, key)
			}
			keys[key] = true
			if k := f.Type.Kind(); i == 0 && (k == reflect.Struct || k == reflect.Pointer || k == reflect.Slice) {
				t.Errorf("%s.%s: a struct's first field must be a scalar", typ.Name(), f.Name)
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeFor[Scenario]())
	if len(seen) != 9 {
		t.Errorf("walked %d structs, want the 9 of the schema", len(seen))
	}
}
