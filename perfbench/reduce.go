package main

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// The reductions that turn raw measurements into reported numbers. Each is
// a pure function, tested in reduce_test.go.

// ppm10 is the fixed-point scale of percentile levels: a level of 99.9 is
// 999_000_0 parts in 10^7, so nearest ranks are computed in exact integer
// arithmetic rather than with float products that round differently
// around n·p = integer.
const ppm10 = 10_000_000

// rank returns the 1-based nearest rank of percentile level (parts in
// 10^7) among n samples: ceil(level·n / 10^7), at least 1.
func rank(level int64, n int) int {
	r := int((level*int64(n) + ppm10 - 1) / ppm10)
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile of sorted ascending
// samples; p is in percent (99.9 means p99.9). It returns 0 for no samples.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(int64(p*ppm10/100+0.5), len(sorted))-1]
}

// tailLevels is the ladder tail() climbs, in parts per 10^7.
var tailLevels = []int64{
	5_000_000, 9_000_000, 9_900_000, 9_990_000, 9_999_000, 9_999_900, 9_999_990, 9_999_999,
}

// minBeyond is how many samples must lie beyond a percentile for tail()
// to report it.
const minBeyond = 10

// tail is the highest ladder percentile with at least minBeyond samples
// beyond its nearest rank.
type tail struct {
	Value  uint32
	Level  int64 // parts per 10^7
	Beyond int   // samples strictly after the rank
	N      int
}

// Label renders the level the way it is printed beside the value
// ("p99.99").
func (t tail) Label() string {
	s := fmt.Sprintf("p%.5f", float64(t.Level)/1e5)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// tailOf returns the tail of sorted samples; ok is false when even the
// median has fewer than minBeyond samples beyond it.
func tailOf(sorted []uint32) (t tail, ok bool) {
	n := len(sorted)
	for _, l := range tailLevels {
		r := rank(l, n)
		if n-r < minBeyond {
			break
		}
		t, ok = tail{Value: sorted[r-1], Level: l, Beyond: n - r, N: n}, true
	}
	return t, ok
}

// sloMissShare is the share of attempted requests that failed or completed
// later than limit: every failedSample counts as a miss.
func sloMissShare(lat []uint32, limit uint32) float64 {
	if len(lat) == 0 {
		return 0
	}
	miss := 0
	for _, l := range lat {
		if l > limit {
			miss++
		}
	}
	return float64(miss) / float64(len(lat))
}

// sortedCopy returns the samples in ascending order, leaving xs untouched.
func sortedCopy(xs []uint32) []uint32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// clampNs converts a nanosecond duration to a sample, saturating at the
// uint32 range (4.29 s — longer than any run's per-request latency budget).
func clampNs(d int64) uint32 {
	switch {
	case d < 0:
		return 0
	case d > 1<<32-1:
		return 1<<32 - 1
	}
	return uint32(d)
}

// failedSample marks a failed request in a schedule's latency record; it
// sorts after every real latency.
const failedSample = 1<<32 - 1

// completed returns the prefix of ascending samples that are not failures.
func completed(sorted []uint32) []uint32 {
	i, _ := slices.BinarySearch(sorted, failedSample)
	return sorted[:i]
}

// schedule is one connection's open-loop plan and its recorder. Request k
// is due at start + k·interval whether or not request k-1 has finished;
// its latency runs from that due time, so a stall delays every request due
// while it lasts, not just the one it hit.
type schedule struct {
	start, interval int64 // ns on the run clock
	n               int   // requests planned

	lat      []uint32 // due-to-done latency of request k, or failedSample
	failed   int
	genLate  hist // issue lateness of requests not queued behind the connection
	backlog  int  // most requests due but not yet issued at an issue
	prevDone int64
}

// newSchedule plans n requests; lat holds one sample per request, so
// recording never allocates.
func newSchedule(start, interval int64, n int, lat []uint32) *schedule {
	return &schedule{start: start, interval: interval, n: n, lat: lat[:n]}
}

func (s *schedule) due(k int) int64 { return s.start + int64(k)*s.interval }

// note records request k, issued at issue and finished at done. parked
// reports that the connection was held at a safepoint while it waited for
// the due time: that lateness is the collector's, not the generator's, and
// stays out of genLate (it is still in the request's latency).
func (s *schedule) note(k int, issue, done int64, ok, parked bool) {
	due := s.due(k)
	if b := int((issue - due) / s.interval); b > s.backlog {
		s.backlog = b
	}
	if due >= s.prevDone && !parked {
		s.genLate.add(issue - due)
	}
	s.prevDone = done
	if ok {
		s.lat[k] = min(clampNs(done-due), failedSample-1)
	} else {
		s.lat[k] = failedSample
		s.failed++
	}
}

// window returns the samples of the requests due in [from, to).
func (s *schedule) window(from, to int64) []uint32 {
	idx := func(t int64) int {
		if t <= s.start {
			return 0
		}
		return min(int((t-s.start+s.interval-1)/s.interval), s.n)
	}
	return s.lat[idx(from):idx(to)]
}

// windowQuantiles cuts the run's due-time axis into n windows of width
// from t0 and returns, for each window holding completed requests, the
// nearest-rank percentile p of their latencies (failures excluded).
func windowQuantiles(scheds []*schedule, t0, width int64, n int, p float64) []float64 {
	var out []float64
	var buf []uint32
	for w := 0; w < n; w++ {
		buf = buf[:0]
		for _, s := range scheds {
			buf = append(buf, s.window(t0+int64(w)*width, t0+int64(w+1)*width)...)
		}
		slices.Sort(buf)
		if c := completed(buf); len(c) > 0 {
			out = append(out, float64(percentile(c, p)))
		}
	}
	return out
}

// span is one timed call in a sampled request tree. Parent is the index of
// the enclosing span in the same slice, -1 for a root.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Req        int64
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover (overlapping children count once; the parts of a
// child outside its parent do not count).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, c := range kids[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64
		for j, v := range iv {
			switch {
			case j == 0:
				curA, curB = v[0], v[1]
			case v[0] <= curB:
				curB = max(curB, v[1])
			default:
				covered += curB - curA
				curA, curB = v[0], v[1]
			}
		}
		if len(iv) > 0 {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// hist is a log-linear latency histogram in nanoseconds: exact below 64ns,
// then 64 sub-buckets per power of two (at most 1.6% relative error). It
// keeps the per-layer call timings of a traced run, where storing every
// sample of every call would dwarf the heap under test.
type hist struct {
	counts [64 + 58*64]int64
	n      int64
	sum    int64
}

func histBucket(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e lies in [64, 128)
	return 64 + e*64 + int(v>>uint(e)) - 64
}

// histLow is the smallest value that falls in bucket b.
func histLow(b int) uint64 {
	if b < 64 {
		return uint64(b)
	}
	e := (b - 64) / 64
	return uint64(64+(b-64)%64) << uint(e)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the lower bound of the bucket holding the nearest-rank
// percentile p (in percent).
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := int64(rank(int64(p*ppm10/100+0.5), int(h.n)))
	var seen int64
	for b, c := range h.counts {
		if seen += c; seen >= r {
			return float64(histLow(b))
		}
	}
	return 0
}
