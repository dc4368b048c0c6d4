package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
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

// TestCLIShapes drives the fetch shapes of `once` and the failover and
// dial-error paths of `probe` against a live loopback agent.
func TestCLIShapes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	plain := startAgent(t, ctx)
	ring := startAgent(t, ctx, "-history", "8")
	seqRe := regexp.MustCompile(`seq=\d+`)

	for _, tc := range []struct {
		name    string
		args    []string
		wantErr bool
		check   func(out string) error
	}{
		{"once-burst", []string{"once", "-target", plain, "-burst", "3"}, false, func(out string) error {
			lines, seqs := 0, map[string]bool{}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasSuffix(line, " burst") {
					lines++
					seqs[seqRe.FindString(line)] = true
				}
			}
			if lines != 3 || len(seqs) != 3 {
				return fmt.Errorf("%d burst lines with %d distinct seqs, want 3 and 3", lines, len(seqs))
			}
			return nil
		}},
		{"once-history", []string{"once", "-target", ring, "-history"}, false, func(out string) error {
			if !strings.Contains(out, " hist slope=") {
				return fmt.Errorf("no hist slope")
			}
			return nil
		}},
		{"probe-failover", []string{"probe", "-targets", plain, "-failover", "-count", "2"}, false, func(out string) error {
			if !strings.Contains(out, " age=") || !strings.Contains(out, " via=rdma") {
				return fmt.Errorf("want age= and via=rdma")
			}
			return nil
		}},
		{"probe-unreachable", []string{"probe", "-targets", plain + ",127.0.0.1:1", "-count", "1"}, true, func(out string) error {
			if !strings.Contains(out, "127.0.0.1:1") {
				return fmt.Errorf("error does not name the unreachable target")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := rmmon(ctx, tc.args...).CombinedOutput()
			if tc.wantErr {
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != 1 {
					t.Fatalf("want exit 1, got %v\n%s", err, out)
				}
			} else if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if err := tc.check(string(out)); err != nil {
				t.Fatalf("%v:\n%s", err, out)
			}
		})
	}
}

// TestInvertedPeriodRangeExit: a -period-max below -interval is a usage
// error (exit 2), as rmbench's inverted range is, instead of a silent
// 16×interval ceiling. A range whose ends meet passes the check and
// gets as far as dialing the (unreachable) target, which exits 1.
func TestInvertedPeriodRangeExit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tc := range []struct {
		periodMax string
		want      int
	}{{"10ms", 2}, {"49ms", 2}, {"50ms", 1}} {
		out, err := rmmon(ctx, "probe", "-targets", "127.0.0.1:1", "-count", "1",
			"-interval", "50ms", "-period-max", tc.periodMax).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != tc.want {
			t.Fatalf("-period-max %s: want exit %d, got %v\n%s", tc.periodMax, tc.want, err, out)
		}
		if tc.want == 2 && !strings.Contains(string(out), "below the floor") {
			t.Fatalf("-period-max %s: usage error does not say why:\n%s", tc.periodMax, out)
		}
	}
}

// TestClaimFlagRangeExit: a claim id outside 1..65535 would wrap in the
// uint16 owner field (65536 is the vacant owner 0, 65537 aliases owner
// 1), a claim table over 65535 shards does not fit the key reply's
// uint16 count, and -witness or -claim-owners mean nothing without
// -claim: each is a usage error (exit 2) before any dial. The largest
// id passes the check and gets as far as dialing the (unreachable)
// witness, which exits 1.
func TestClaimFlagRangeExit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	probe := []string{"probe", "-targets", "127.0.0.1:1", "-count", "1"}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{append(probe, "-claim", "65536"), 2},
		{append(probe, "-claim", "65537"), 2},
		{append(probe, "-claim", "-1"), 2},
		{append(probe, "-witness", "127.0.0.1:1"), 2},
		{append(probe, "-claim-owners", "2"), 2},
		{[]string{"agent", "-listen", "127.0.0.1:0", "-host-claims", "65536"}, 2},
		{append(probe, "-claim", "65535"), 1},
	} {
		out, err := rmmon(ctx, tc.args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != tc.want {
			t.Fatalf("%v: want exit %d, got %v\n%s", tc.args, tc.want, err, out)
		}
	}
}
