package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runMeta is stamped on every result.
type runMeta struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Caches     map[string]string `json:"caches"`
	Server     serverDefaults    `json:"server"`
	Commit     string            `json:"commit"`
	// StealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests while the run lasted. Figures of runs with much
	// steal are not comparable with those of runs without.
	StealPct float64 `json:"steal_pct"`
}

func newRunMeta(w workload, seed uint64, dur time.Duration, trace bool) runMeta {
	return runMeta{
		Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Caches: cacheSizes(), Server: aggserveDefaults,
		Commit: commit(),
	}
}

// cpuTimes reads the machine's total and steal CPU time, in clock ticks,
// from the first line of /proc/stat; both are 0 where it is absent.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cacheSizes reads cpu0's data and unified cache sizes from /sys, keyed
// "L1d", "L2", "L3".
func cacheSizes() map[string]string {
	out := make(map[string]string)
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" || typ == "Instruction" {
			continue
		}
		name := "L" + level
		if typ == "Data" {
			name += "d"
		}
		out[name] = size
	}
	return out
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// commit is the VCS revision the binary was built from, or "unknown" when
// it was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// rssSampler samples the resident set size of the process every 5 ms
// from start until stop.
type rssSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MiB
}

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, float64(residentBytes())/(1<<20))
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples.
func (s *rssSampler) stop() []float64 {
	close(s.stopc)
	s.wg.Wait()
	return s.samples
}

// residentBytes reads the resident set size from /proc/self/statm,
// falling back to the Go runtime's mapped memory where /proc is absent.
func residentBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// quantileMs returns the q-quantile of ds in milliseconds, interpolating
// linearly between order statistics (0 for an empty slice).
func quantileMs(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return quantile(xs, q)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
