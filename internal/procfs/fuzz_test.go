package procfs

import (
	"strings"
	"testing"
)

// FuzzProcfsParsers drives every /proc parser with arbitrary bytes.
// The contract under fuzz: malformed input may error, must never
// panic, and must never produce out-of-range state (negative CPU
// indexes once took parseStat out of bounds).
func FuzzProcfsParsers(f *testing.F) {
	f.Add("cpu  100 0 100 800 0 0 0 0 0 0\ncpu0 100 0 100 800 0 0 0 0 0 0\nintr 500 1 2\nctxt 900\nprocs_running 3\n")
	f.Add("0.50 0.40 0.30 3/123 4567\n")
	f.Add("MemTotal:       1048576 kB\nMemFree:         524288 kB\nMemAvailable:    786432 kB\n")
	f.Add("Inter-|   Receive\n face |bytes\n  eth0: 1000 1 0 0 0 0 0 0 2000 2 0 0 0 0 0 0\n")
	f.Add("cpu-1 1 2 3 4\ncpu99999 1 2 3 4\n")
	f.Add("0.1 0.2 0.3 x/y 99\n")
	f.Add("MemFree: 10 kB\n")
	f.Add(" : \n:\neth0:\n")
	f.Add("cpu0 1 0 0 100") // busy below the previous sample's: found by this fuzzer
	f.Fuzz(func(t *testing.T, input string) {
		var s Snapshot
		prev := map[int]cpuTimes{0: {busy: 50, total: 100}}
		if err := parseStat(strings.NewReader(input), &s, prev); err == nil {
			for _, u := range s.UtilPerMille {
				if u < 0 || u > 1000 {
					t.Fatalf("utilisation %d out of range", u)
				}
			}
		}
		var s2 Snapshot
		_ = parseLoadavg(strings.NewReader(input), &s2)
		var s3 Snapshot
		_ = parseMeminfo(strings.NewReader(input), &s3)
		var s4 Snapshot
		_ = parseNetDev(strings.NewReader(input), &s4)
	})
}

// TestParsersRejectMalformed pins the stricter error contracts: junk
// errors out instead of yielding a confidently wrong snapshot.
func TestParsersRejectMalformed(t *testing.T) {
	cases := []struct {
		name  string
		parse func(string) error
		in    string
	}{
		{"stat no cpu lines", func(in string) error {
			var s Snapshot
			return parseStat(strings.NewReader(in), &s, map[int]cpuTimes{})
		}, "intr 5\nctxt 9\n"},
		{"loadavg empty", func(in string) error {
			var s Snapshot
			return parseLoadavg(strings.NewReader(in), &s)
		}, ""},
		{"loadavg short", func(in string) error {
			var s Snapshot
			return parseLoadavg(strings.NewReader(in), &s)
		}, "0.1 0.2\n"},
		{"loadavg bad fraction", func(in string) error {
			var s Snapshot
			return parseLoadavg(strings.NewReader(in), &s)
		}, "0.1 0.2 0.3 junk 99\n"},
		{"loadavg non-numeric fraction", func(in string) error {
			var s Snapshot
			return parseLoadavg(strings.NewReader(in), &s)
		}, "0.1 0.2 0.3 a/b 99\n"},
		{"meminfo empty", func(in string) error {
			var s Snapshot
			return parseMeminfo(strings.NewReader(in), &s)
		}, ""},
		{"meminfo no MemTotal", func(in string) error {
			var s Snapshot
			return parseMeminfo(strings.NewReader(in), &s)
		}, "MemFree: 10 kB\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.parse(tc.in); err == nil {
				t.Fatalf("want error for %q, got nil", tc.in)
			}
		})
	}
}

// TestParseStatNegativeCPU pins the out-of-bounds regression: a
// "cpu-1" line must be ignored, not crash the parser.
func TestParseStatNegativeCPU(t *testing.T) {
	var s Snapshot
	in := "cpu-1 1 2 3 4\ncpu0 100 0 100 800\n"
	if err := parseStat(strings.NewReader(in), &s, map[int]cpuTimes{}); err != nil {
		t.Fatalf("parseStat: %v", err)
	}
	if s.NumCPU != 1 {
		t.Fatalf("NumCPU = %d, want 1", s.NumCPU)
	}
}
