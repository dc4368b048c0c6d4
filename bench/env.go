package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the noise guard's record of where and when a result set
// was measured; -compare refuses to call a set marked Noisy.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	Noisy      bool    `json:"noisy"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		LoadAvg1:   loadAvg1(),
	}
	h.Noisy = h.LoadAvg1 > float64(h.NProc)
	return h
}

// commitID names the measured tree: git's HEAD when the tree is a
// repository, "unknown" in an exported checkout.
func commitID() string {
	out, err := exec.Command("git", "-C", repoRoot(), "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// loadAvg1 is the host's 1-minute load average, 0 where unreadable.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// procField reads one "Key: value" (or "key: value") integer field of
// a /proc/self file; ok is false where the file or field is missing.
func procField(file, key string) (v uint64, ok bool) {
	b, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, found := strings.CutPrefix(line, key+":")
		if !found {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
// Where /proc is unreadable it falls back to the Go runtime's view of
// memory obtained from the OS, which is never zero.
func peakRSSMB() float64 {
	if kb, ok := procField("status", "VmHWM"); ok {
		return float64(kb) / 1024
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// syscalls is read+write system calls issued so far by this process.
func syscalls() (n uint64, ok bool) {
	r, ok1 := procField("io", "syscr")
	w, ok2 := procField("io", "syscw")
	return r + w, ok1 && ok2
}

// repoRoot is the directory holding go.mod, found by walking up from
// the working directory: the benchmark runs from the repository root
// under the driver and from bench/ under `go test`.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
