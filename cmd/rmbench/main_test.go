package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWith invokes run() with a fresh flag set and argv, restoring the
// globals afterwards.
func runWith(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("rmbench", flag.ContinueOnError)
	os.Args = append([]string{"rmbench"}, args...)
	return run()
}

const tinyScenario = `name: exit-probe
horizon: 1s
fleet:
  backends: 2
workload:
  kind: rubis
  clients: 4
  think: 20ms
assertions:
  - metric: served
    min: %MIN%
`

func writeScenario(t *testing.T, min string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.yaml")
	data := []byte(strings.ReplaceAll(tinyScenario, "%MIN%", min))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioExitCodes: a failing assertion must propagate a non-zero
// exit from rmbench (CI gates on it), and a passing one must not.
func TestScenarioExitCodes(t *testing.T) {
	if got := runWith(t, "-scenario", writeScenario(t, "10")); got != 0 {
		t.Fatalf("passing scenario exited %d, want 0", got)
	}
	if got := runWith(t, "-scenario", writeScenario(t, "1000000000")); got != 1 {
		t.Fatalf("failing scenario exited %d, want 1", got)
	}
}

// TestScenarioBadFileExit: unreadable or invalid scenario files are a
// hard error, not a silent success.
func TestScenarioBadFileExit(t *testing.T) {
	if got := runWith(t, "-scenario", filepath.Join(t.TempDir(), "missing.yaml")); got != 1 {
		t.Fatalf("missing file exited %d, want 1", got)
	}
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: x\nhorizon: banana\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runWith(t, "-scenario", bad); got != 1 {
		t.Fatalf("invalid file exited %d, want 1", got)
	}
}
