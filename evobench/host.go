package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// The host probes put host drift next to every result. They are recorded
// in the header only and never used to adjust a metric.

var probeSink uint64

// cpuProbe times a fixed, allocation-free xorshift loop in milliseconds.
func cpuProbe() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return float64(time.Since(t0)) / 1e6
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: the steal ticks
// and the total over user..steal. ok is false where /proc is unavailable.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		n, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 8 {
			steal = n
		}
	}
	return steal, total, true
}

// loadAvg returns the first three fields of /proc/loadavg, or "n/a".
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "n/a"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "n/a"
	}
	return strings.Join(f[:3], " ")
}

// hostProbe brackets a run.
type hostProbe struct {
	CPUBeforeMs  float64 `json:"cpu_probe_before_ms"`
	CPUAfterMs   float64 `json:"cpu_probe_after_ms"`
	LoadBefore   string  `json:"loadavg_before"`
	LoadAfter    string  `json:"loadavg_after"`
	StealFrac    float64 `json:"steal_frac"`
	steal, total uint64
	statOK       bool
}

func startProbe() *hostProbe {
	p := &hostProbe{LoadBefore: loadAvg()}
	p.steal, p.total, p.statOK = cpuTimes()
	p.CPUBeforeMs = cpuProbe()
	return p
}

func (p *hostProbe) finish() {
	p.CPUAfterMs = cpuProbe()
	p.LoadAfter = loadAvg()
	if s, t, ok := cpuTimes(); ok && p.statOK && t > p.total {
		p.StealFrac = float64(s-p.steal) / float64(t-p.total)
	}
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// envHeader is the environment part of the result header.
type envHeader struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GODEBUG    string `json:"godebug"`
}

func environment() envHeader {
	return envHeader{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GODEBUG:    os.Getenv("GODEBUG"),
	}
}
