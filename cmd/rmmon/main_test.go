package main

import (
	"bufio"
	"context"
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

// TestClaimSmoke drives the live HA recipe end to end over loopback: an
// agent hosting a one-shard claim table, and a probe contending for it
// as front-end 1. The probe is alone, so it must win the vacant word at
// epoch 1 and report it on the claims line rmmon prints every cycle.
func TestClaimSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	agent := rmmon(ctx, "agent", "-listen", "127.0.0.1:0", "-node", "7", "-host-claims", "1")
	out, err := agent.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		agent.Process.Signal(os.Interrupt)
		agent.Wait()
	}()
	// "rmmon agent: scheme=rdma-sync listening on 127.0.0.1:PORT (node 7)"
	banner, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("agent banner: %v", err)
	}
	_, rest, ok := strings.Cut(banner, "listening on ")
	if !ok {
		t.Fatalf("agent banner %q names no address", banner)
	}
	addr := strings.Fields(rest)[0]

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
