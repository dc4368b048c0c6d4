package procfs

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rdmamon/internal/wire"
)

// writeFakeProc builds a minimal /proc tree.
func writeFakeProc(t *testing.T, stat, loadavg, meminfo, netdev string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"stat":    stat,
		"loadavg": loadavg,
		"meminfo": meminfo,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if netdev != "" {
		if err := os.MkdirAll(filepath.Join(dir, "net"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "net/dev"), []byte(netdev), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const stat1 = `cpu  100 0 100 800 0 0 0 0 0 0
cpu0 50 0 50 400 0 0 0 0 0 0
cpu1 50 0 50 400 0 0 0 0 0 0
intr 12345 1 2 3
ctxt 99887
procs_running 3
procs_blocked 0
`

const stat2 = `cpu  300 0 200 900 0 0 0 0 0 0
cpu0 150 0 100 450 0 0 0 0 0 0
cpu1 150 0 100 450 0 0 0 0 0 0
intr 22345 1 2 3
ctxt 109887
procs_running 5
procs_blocked 0
`

const loadavg1 = "0.50 0.40 0.30 3/123 4567\n"

const meminfo1 = `MemTotal:       1048576 kB
MemFree:         262144 kB
MemAvailable:    524288 kB
Buffers:          10000 kB
`

const netdev1 = `Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo:  999999     100    0    0    0     0          0         0   999999     100    0    0    0     0       0          0
  eth0: 5000000    4000    0    0    0     0          0         0  3000000    2000    0    0    0     0       0          0
  eth1: 1000000    1000    0    0    0     0          0         0   500000     500    0    0    0     0       0          0
`

func TestLinuxSnapshot(t *testing.T) {
	dir := writeFakeProc(t, stat1, loadavg1, meminfo1, netdev1)
	p := NewLinux(dir)
	s, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCPU != 2 {
		t.Fatalf("NumCPU = %d", s.NumCPU)
	}
	if s.NrRunning != 3 {
		t.Fatalf("NrRunning = %d, want 3 (procs_running)", s.NrRunning)
	}
	if s.NrTasks != 123 {
		t.Fatalf("NrTasks = %d, want 123", s.NrTasks)
	}
	if s.MemTotalKB != 1048576 || s.MemUsedKB != 1048576-524288 {
		t.Fatalf("mem = %d/%d", s.MemUsedKB, s.MemTotalKB)
	}
	// lo excluded, eth0+eth1 summed.
	if s.NetRxBytes != 6000000 || s.NetTxBytes != 3500000 {
		t.Fatalf("net = %d/%d", s.NetRxBytes, s.NetTxBytes)
	}
	if s.CumIRQ != 12345 || s.CtxSwitch != 99887 {
		t.Fatalf("irq/ctxt = %d/%d", s.CumIRQ, s.CtxSwitch)
	}
	// First sample: no utilisation baseline yet.
	for _, u := range s.UtilPerMille {
		if u != 0 {
			t.Fatalf("first-sample util = %v, want zeros", s.UtilPerMille)
		}
	}
}

func TestLinuxUtilDelta(t *testing.T) {
	dir := writeFakeProc(t, stat1, loadavg1, meminfo1, "")
	p := NewLinux(dir)
	if _, err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Swap in the second /proc/stat: each CPU gained 150 busy of 150
	// total (cpu0: busy 100->250 of total 500->700... compute below).
	if err := os.WriteFile(filepath.Join(dir, "stat"), []byte(stat2), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// cpu0: busy 100->250 (delta 150), total 500->700 (delta 200) -> 750.
	for c := 0; c < 2; c++ {
		if s.UtilPerMille[c] != 750 {
			t.Fatalf("cpu%d util = %d, want 750", c, s.UtilPerMille[c])
		}
	}
}

func TestLinuxMissingRoot(t *testing.T) {
	p := NewLinux(filepath.Join(t.TempDir(), "nope"))
	if _, err := p.Snapshot(); err == nil {
		t.Fatal("missing /proc should error")
	}
}

func TestLinuxRealProc(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs real /proc")
	}
	p := NewLinux("")
	a, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCPU < 1 || a.MemTotalKB == 0 || a.NrTasks == 0 {
		t.Fatalf("implausible real snapshot: %+v", a)
	}
	b, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range b.UtilPerMille {
		if u < 0 || u > 1000 {
			t.Fatalf("util out of range: %v", b.UtilPerMille)
		}
	}
}

func TestSnapshotRecord(t *testing.T) {
	s := Snapshot{
		TimeNS: 123, NumCPU: 2, NrRunning: 4, NrTasks: 77,
		UtilPerMille: []int{800, 200},
		MemUsedKB:    1000, MemTotalKB: 2000,
		NetRxBytes: 5, NetTxBytes: 6, CumIRQ: 7, CtxSwitch: 8,
	}
	r := s.Record(3, 9)
	if r.NodeID != 3 || r.Seq != 9 || r.KTimeNS != 123 {
		t.Fatalf("header wrong: %+v", r)
	}
	if r.UtilMean() != 500 {
		t.Fatalf("util mean = %d", r.UtilMean())
	}
	// Round-trips the wire codec.
	got, err := wire.Decode(r.Encode())
	if err != nil || got.NrTasks != 77 {
		t.Fatalf("wire round trip: %v %+v", err, got)
	}
}

func TestSynthetic(t *testing.T) {
	p := &Synthetic{}
	p.Set(Snapshot{NumCPU: 1, NrRunning: 2})
	s, err := p.Snapshot()
	if err != nil || s.NrRunning != 2 {
		t.Fatalf("synthetic: %v %+v", err, s)
	}
	if s.TimeNS == 0 {
		t.Fatal("synthetic should stamp time")
	}
}
