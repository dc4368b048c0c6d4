package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenario holds Parse to two contracts for arbitrary bytes:
//
//  1. It never panics — malformed durations, negative weights, unknown
//     actions, duplicate template names, broken indentation and hostile
//     numerics are all errors.
//  2. Everything it accepts round-trips: Parse(s.encode()) reproduces s
//     exactly, so the canonical encoder and the parser agree on the
//     schema.
func FuzzScenario(f *testing.F) {
	// Seed with the curated scenarios (the richest valid documents)...
	files, _ := filepath.Glob("../../examples/scenarios/*.yaml")
	for _, fn := range files {
		if src, err := os.ReadFile(fn); err == nil {
			f.Add(src)
		}
	}
	// ...the builtins in canonical encoding...
	f.Add(BuiltinChaos().encode())
	f.Add(BuiltinHA().encode())
	// ...and near-miss invalid documents steering the fuzzer at the
	// validators.
	for _, s := range []string{
		"name: x\nhorizon: 1s\n",
		"name: x\nhorizon: banana\n",
		"name: x\nhorizon: -3s\n",
		"name: x\nhorizon: 1s\nfleet:\n  backends: 4\n  templates:\n    - name: a\n      weight: -1\n",
		"name: x\nhorizon: 1s\nfleet:\n  templates:\n    - name: a\n      weight: 1\n    - name: a\n      weight: 2\n",
		"name: x\nhorizon: 2s\nevents:\n  - at: 1s\n    action: explode\n    node: 1\n",
		"name: x\nhorizon: 2s\nevents:\n  - at: 1s\n    action: crash\n    pick: weighted\n    duration: 1s\n",
		"name: \"q\\\"uo # te\"\nhorizon: 1s\n",
		"name: 'single'\nhorizon: 1s\n",
		"\tname: tab\n",
		"name: x\nhorizon: 1s\nstress:\n  crashes: 9999\n",
		"name: x\nhorizon: 1s\nvariants:\n  - name: a\n  - name: a\n",
		"name: x\nhorizon: 1s\nassertions:\n  - metric: served\n    min: 1\n    max: 0\n",
		`{"name":"j","horizon":"2s","fleet":{"backends":3}}`,
		`{"name":"j","horizon":1e99}`,
		"name: x\nhorizon: 1s\nlist: [a, b, [c]]\n",
		"name: x\nhorizon: 1s\nreplicas: 3\nstress:\n  crashes: 0\n",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejected cleanly — that's a pass
		}
		enc := s.encode()
		s2, err := Parse(enc)
		if err != nil {
			t.Fatalf("encode produced unparseable output: %v\n--- encoded ---\n%s", err, enc)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round-trip diverged:\n got %+v\nwant %+v\n--- encoded ---\n%s", s2, s, enc)
		}
		// Accepted scenarios must compile deterministically in both
		// modes without error (Compile re-validates).
		for _, quick := range []bool{false, true} {
			cp, err := s.Compile(quick)
			if err != nil {
				t.Fatalf("valid scenario failed to compile (quick=%v): %v", quick, err)
			}
			if digestPlan(cp.Plan(7)) != digestPlan(cp.Plan(7)) {
				t.Fatal("plan compilation is non-deterministic")
			}
		}
	})
}
