// Package procfs samples real machine statistics from the Linux /proc
// filesystem (with a pluggable root for testing, and a synthetic
// provider for non-Linux platforms). It supplies the live-mode
// monitoring agents with the same load information the simulated
// kernel exposes.
package procfs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rdmamon/internal/wire"
)

// Snapshot is one sample of a machine's load state.
type Snapshot struct {
	TimeNS    int64
	NumCPU    int
	NrRunning int
	NrTasks   int

	UtilPerMille []int // per CPU, derived from consecutive /proc/stat samples

	MemUsedKB  uint64
	MemTotalKB uint64
	NetRxBytes uint64
	NetTxBytes uint64
	CumIRQ     uint64
	CtxSwitch  uint64
}

// Record converts the snapshot into the wire format.
func (s Snapshot) Record(nodeID uint16, seq uint32) wire.LoadRecord {
	r := wire.LoadRecord{
		NumCPU:     uint8(min(s.NumCPU, wire.MaxCPU)),
		NodeID:     nodeID,
		Seq:        seq,
		KTimeNS:    s.TimeNS,
		NrRunning:  clampU16(s.NrRunning),
		NrTasks:    clampU16(s.NrTasks),
		MemUsedKB:  uint32(min64(s.MemUsedKB, 1<<32-1)),
		MemTotalKB: uint32(min64(s.MemTotalKB, 1<<32-1)),
		NetRxBytes: s.NetRxBytes,
		NetTxBytes: s.NetTxBytes,
		CumIRQ:     s.CumIRQ,
		CtxSwitch:  s.CtxSwitch,
	}
	for i := 0; i < len(s.UtilPerMille) && i < wire.MaxCPU; i++ {
		r.UtilPerMille[i] = uint16(s.UtilPerMille[i])
	}
	return r
}

func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Provider produces snapshots.
type Provider interface {
	Snapshot() (Snapshot, error)
}

// Linux samples a (real or fake) /proc tree. Utilisation is computed
// from the delta between consecutive calls, so the first call reports
// zero utilisation. Linux is safe for concurrent use.
type Linux struct {
	Root string // defaults to "/proc"

	mu   sync.Mutex
	prev map[int]cpuTimes
	now  func() time.Time
}

type cpuTimes struct {
	busy, total uint64
}

// NewLinux returns a provider over root (empty = "/proc").
func NewLinux(root string) *Linux {
	if root == "" {
		root = "/proc"
	}
	return &Linux{Root: root, prev: make(map[int]cpuTimes), now: time.Now}
}

// Snapshot implements Provider.
func (l *Linux) Snapshot() (Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s Snapshot
	s.TimeNS = l.now().UnixNano()
	if err := l.readStat(&s); err != nil {
		return s, err
	}
	if err := l.readLoadavg(&s); err != nil {
		return s, err
	}
	if err := l.readMeminfo(&s); err != nil {
		return s, err
	}
	// Network counters are optional (missing on some systems).
	_ = l.readNetDev(&s)
	return s, nil
}

func (l *Linux) open(name string) (*os.File, error) {
	return os.Open(filepath.Join(l.Root, name))
}

// readStat opens /proc/stat and delegates to parseStat.
func (l *Linux) readStat(s *Snapshot) error {
	f, err := l.open("stat")
	if err != nil {
		return err
	}
	defer f.Close()
	return parseStat(f, s, l.prev)
}

// parseStat parses a /proc/stat stream: per-CPU jiffies, interrupt
// and context switch totals. prev holds the previous sample's CPU
// times for the utilisation delta (it is updated in place; pass a
// fresh map to get zero utilisation). Malformed input yields an error,
// never a panic — the parser is fuzzed on that contract.
func parseStat(r io.Reader, s *Snapshot, prev map[int]cpuTimes) error {
	sc := bufio.NewScanner(r)
	cur := make(map[int]cpuTimes)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], "cpu") && len(fields[0]) > 3:
			id, err := strconv.Atoi(fields[0][3:])
			if err != nil || id < 0 {
				// "cpu-1" parses as a valid int but would index the
				// utilisation slice out of bounds below.
				continue
			}
			var vals []uint64
			for _, fstr := range fields[1:] {
				v, err := strconv.ParseUint(fstr, 10, 64)
				if err != nil {
					break
				}
				vals = append(vals, v)
			}
			if len(vals) < 4 {
				continue
			}
			var total uint64
			for _, v := range vals {
				total += v
			}
			idle := vals[3] // user nice system idle [iowait ...]
			if len(vals) >= 5 {
				idle += vals[4] // iowait counts as not-busy
			}
			cur[id] = cpuTimes{busy: total - idle, total: total}
		case fields[0] == "intr" && len(fields) > 1:
			s.CumIRQ, _ = strconv.ParseUint(fields[1], 10, 64)
		case fields[0] == "ctxt" && len(fields) > 1:
			s.CtxSwitch, _ = strconv.ParseUint(fields[1], 10, 64)
		case fields[0] == "procs_running" && len(fields) > 1:
			s.NrRunning, _ = strconv.Atoi(fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(cur) == 0 {
		return errors.New("procfs: no per-cpu lines in stat")
	}
	s.NumCPU = len(cur)
	s.UtilPerMille = make([]int, s.NumCPU)
	for id, c := range cur {
		if id >= s.NumCPU {
			continue
		}
		p, ok := prev[id]
		// busy can step back while total advances (iowait is not
		// monotone on Linux); the unsigned difference would wrap.
		if ok && c.total > p.total && c.busy >= p.busy {
			s.UtilPerMille[id] = int((c.busy - p.busy) * 1000 / (c.total - p.total))
			if s.UtilPerMille[id] > 1000 {
				s.UtilPerMille[id] = 1000
			}
		}
		prev[id] = c
	}
	return nil
}

// readLoadavg opens /proc/loadavg and delegates to parseLoadavg.
func (l *Linux) readLoadavg(s *Snapshot) error {
	f, err := l.open("loadavg")
	if err != nil {
		return err
	}
	defer f.Close()
	return parseLoadavg(f, s)
}

// parseLoadavg parses a /proc/loadavg stream for the task counts
// ("0.1 0.2 0.3 R/T lastpid"). A missing or malformed R/T fraction is
// an error: silently reporting zero tasks would tell the dispatcher
// the machine is idle, which is worse than no record at all.
func parseLoadavg(r io.Reader, s *Snapshot) error {
	var a, b, c, frac string
	if _, err := fmt.Fscan(r, &a, &b, &c, &frac); err != nil {
		return fmt.Errorf("procfs: short loadavg: %w", err)
	}
	parts := strings.SplitN(frac, "/", 2)
	if len(parts) != 2 {
		return fmt.Errorf("procfs: malformed loadavg field %q", frac)
	}
	run, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("procfs: malformed loadavg field %q", frac)
	}
	tasks, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("procfs: malformed loadavg field %q", frac)
	}
	if s.NrRunning == 0 {
		s.NrRunning = run
	}
	s.NrTasks = tasks
	return nil
}

// readMeminfo opens /proc/meminfo and delegates to parseMeminfo.
func (l *Linux) readMeminfo(s *Snapshot) error {
	f, err := l.open("meminfo")
	if err != nil {
		return err
	}
	defer f.Close()
	return parseMeminfo(f, s)
}

// parseMeminfo parses a /proc/meminfo stream (kB units). Input without
// a MemTotal line is an error — a record with zero total memory would
// make every memory-weighted load index divide garbage downstream.
func parseMeminfo(r io.Reader, s *Snapshot) error {
	sc := bufio.NewScanner(r)
	var total, avail, free uint64
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "MemTotal:":
			total = v
		case "MemAvailable:":
			avail = v
		case "MemFree:":
			free = v
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if total == 0 {
		return errors.New("procfs: meminfo has no MemTotal")
	}
	if avail == 0 {
		avail = free
	}
	s.MemTotalKB = total
	if total >= avail {
		s.MemUsedKB = total - avail
	}
	return nil
}

// readNetDev opens /proc/net/dev and delegates to parseNetDev.
func (l *Linux) readNetDev(s *Snapshot) error {
	f, err := l.open("net/dev")
	if err != nil {
		return err
	}
	defer f.Close()
	return parseNetDev(f, s)
}

// parseNetDev parses a /proc/net/dev stream, summing non-loopback
// interfaces. It stays lenient — network counters are optional — but
// must never panic on junk.
func parseNetDev(r io.Reader, s *Snapshot) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		idx := strings.Index(line, ":")
		if idx < 0 {
			continue
		}
		name := strings.TrimSpace(line[:idx])
		if name == "lo" {
			continue
		}
		fields := strings.Fields(line[idx+1:])
		if len(fields) < 9 {
			continue
		}
		rx, _ := strconv.ParseUint(fields[0], 10, 64)
		tx, _ := strconv.ParseUint(fields[8], 10, 64)
		s.NetRxBytes += rx
		s.NetTxBytes += tx
	}
	return sc.Err()
}

// Synthetic is a programmable provider for tests and non-Linux hosts.
// It is safe for concurrent use.
type Synthetic struct {
	mu sync.Mutex
	S  Snapshot
}

// Snapshot implements Provider.
func (p *Synthetic) Snapshot() (Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.S.TimeNS = time.Now().UnixNano()
	return p.S, nil
}

// Set replaces the synthetic state.
func (p *Synthetic) Set(s Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.S = s
}
