package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run rmmon's main with its
// command-line arguments instead of the tests, so a test can drive the
// real CLI as a child process without building a separate binary.
const runMainEnv = "RMMON_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rmmon returns a command running rmmon with args under ctx.
func rmmon(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// startAgent runs an rmmon agent on a free loopback port with the
// extra args and returns its address; the agent is interrupted when
// the test ends.
func startAgent(t *testing.T, ctx context.Context, args ...string) string {
	t.Helper()
	agent := rmmon(ctx, append([]string{"agent", "-listen", "127.0.0.1:0", "-node", "7"}, args...)...)
	out, err := agent.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agent.Process.Signal(os.Interrupt)
		agent.Wait()
	})
	// "rmmon agent: scheme=rdma-sync listening on 127.0.0.1:PORT (node 7)"
	banner, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("agent banner: %v", err)
	}
	_, rest, ok := strings.Cut(banner, "listening on ")
	if !ok {
		t.Fatalf("agent banner %q names no address", banner)
	}
	return strings.Fields(rest)[0]
}

// TestClaimSmoke drives the live HA recipe end to end over loopback: an
// agent hosting a one-shard claim table, and a probe contending for it
// as front-end 1. The probe is alone, so it must win the vacant word at
// epoch 1 and report it on the claims line rmmon prints every cycle.
func TestClaimSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr := startAgent(t, ctx, "-host-claims", "1")

	// Cycles 200ms apart: the first claim round (CheckEvery, 100ms at
	// the defaults) wins the vacant word well before the second cycle.
	probe, err := rmmon(ctx, "probe", "-targets", addr, "-claim", "1", "-count", "3",
		"-interval", "200ms").CombinedOutput()
	if err != nil {
		t.Fatalf("probe: %v\n%s", err, probe)
	}
	if !strings.Contains(string(probe), "claims: held=1/1 takeovers=1 ") {
		t.Fatalf("probe never reported holding the claim:\n%s", probe)
	}
}

// TestAdaptiveProbeSkipsQuietTarget: with -period-max, a target whose
// load index stays within -push-threshold is probed ever more rarely,
// so N cycles print fewer than N records. The huge threshold makes the
// agent quiet whatever the host's load does. With a fixed period
// every cycle probes.
func TestAdaptiveProbeSkipsQuietTarget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addr := startAgent(t, ctx)

	const cycles = 12
	probe, err := rmmon(ctx, "probe", "-targets", addr, "-count", fmt.Sprint(cycles),
		"-interval", "50ms", "-period-max", "400ms", "-push-threshold", "1e9").CombinedOutput()
	if err != nil {
		t.Fatalf("probe: %v\n%s", err, probe)
	}
	if n := strings.Count(string(probe), " node=7 "); n == 0 || n >= cycles {
		t.Fatalf("%d records over %d cycles, want at least one and fewer than %d:\n%s", n, cycles, cycles, probe)
	}
}
