package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

// runtimeStats is what the Go runtime itself reports over a run: how long
// runnable goroutines waited for a processor, and the runtime's own GC
// pauses (the host behind the program, not the program's collector).
type runtimeStats struct {
	schedBuckets []float64
	schedCounts  []uint64
	gcPauseCPU   float64 // CPU-seconds, i.e. pause seconds × GOMAXPROCS
}

const (
	metricSched   = "/sched/latencies:seconds"
	metricGCPause = "/cpu/classes/gc/pause:cpu-seconds"
)

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: metricSched}, {Name: metricGCPause}}
	metrics.Read(s)
	var rs runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		rs.schedBuckets = h.Buckets
		rs.schedCounts = append([]uint64(nil), h.Counts...)
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.gcPauseCPU = s[1].Value.Float64()
	}
	return rs
}

// since returns the difference rs - earlier.
func (rs runtimeStats) since(earlier runtimeStats) runtimeStats {
	d := runtimeStats{schedBuckets: rs.schedBuckets, gcPauseCPU: rs.gcPauseCPU - earlier.gcPauseCPU}
	d.schedCounts = make([]uint64, len(rs.schedCounts))
	for i := range d.schedCounts {
		d.schedCounts[i] = rs.schedCounts[i]
		if i < len(earlier.schedCounts) {
			d.schedCounts[i] -= earlier.schedCounts[i]
		}
	}
	return d
}

// schedP99Us is the upper bound of the bucket holding the 99th percentile of
// scheduling latency, in microseconds.
func (rs runtimeStats) schedP99Us() float64 {
	var n uint64
	for _, c := range rs.schedCounts {
		n += c
	}
	if n == 0 {
		return 0
	}
	r := uint64(rank(9_900_000, int(n)))
	var seen uint64
	for i, c := range rs.schedCounts {
		if seen += c; seen >= r {
			return rs.schedBuckets[i+1] * 1e6
		}
	}
	return 0
}

func (rs runtimeStats) gcPauseMs() float64 {
	return rs.gcPauseCPU / float64(runtime.GOMAXPROCS(0)) * 1e3
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meta identifies the code, host and inputs behind a result.
type meta struct {
	Commit      string `json:"commit"`
	SourceSHA   string `json:"source_sha256"`
	CPU         string `json:"cpu"`
	NumCPU      int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go"`
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Connections int    `json:"connections,omitempty"`
}

func hostMeta(root, workload string, seed uint64) meta {
	return meta{
		Commit:     gitHead(root),
		SourceSHA:  sourceDigest(root),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitHead reads the checked-out commit without running git; "none" when the
// tree is not a git checkout (the source digest still identifies it).
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root (paths and
// contents, in walk order), skipping hidden and build directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
