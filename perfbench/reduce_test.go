package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func seq(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i + 1)
	}
	return out
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		p    float64
		want uint32
	}{{0.5, 1}, {1, 1}, {50, 50}, {50.5, 51}, {99, 99}, {99.5, 100}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	// n·p lands exactly on an integer: the rank must not round up past it.
	if got := percentile(seq(1000), 99.9); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %d, want 999", got)
	}
	if got := percentile(seq(3), 50); got != 2 {
		t.Errorf("p50 of 1..3 = %d, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		ok     bool
		label  string
		value  uint32
		beyond int
	}{
		{n: 10, ok: false},
		{n: 19, ok: false}, // p50 is rank 10: only 9 beyond
		{n: 20, ok: true, label: "p50", value: 10, beyond: 10},
		{n: 1000, ok: true, label: "p99", value: 990, beyond: 10},
		{n: 1009, ok: true, label: "p99", value: 999, beyond: 10},
		{n: 10000, ok: true, label: "p99.9", value: 9990, beyond: 10},
		{n: 2_000_000, ok: true, label: "p99.999", value: 1_999_980, beyond: 20},
	} {
		tl, ok := tailOf(seq(c.n))
		if ok != c.ok {
			t.Errorf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if tl.Label() != c.label || tl.Value != c.value || tl.Beyond != c.beyond || tl.N != c.n {
			t.Errorf("n=%d: tail %s=%d with %d beyond of %d, want %s=%d with %d beyond",
				c.n, tl.Label(), tl.Value, tl.Beyond, tl.N, c.label, c.value, c.beyond)
		}
		if tl.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, tl.Beyond)
		}
	}
}

func TestSLOMissShareCountsFailuresAsMisses(t *testing.T) {
	lat := []uint32{100, 2000, failedSample, 500}
	if got := sloMissShare(lat, 1000); got != 0.5 {
		t.Errorf("share = %g, want 0.5 (one slow, one failed, of 4)", got)
	}
	// A failure counts even when the limit is beyond every real latency.
	if got := sloMissShare([]uint32{1, failedSample}, failedSample-1); got != 0.5 {
		t.Errorf("share = %g, want 0.5: a failure must always miss", got)
	}
	if got := sloMissShare(nil, 1); got != 0 {
		t.Errorf("share of nothing = %g, want 0", got)
	}
}

// TestStallDelaysLaterRequests drives a schedule with a synthetic
// single-connection server: request k starts at max(due, previous done) and
// takes serviceNs, except one that stalls for stallNs. Timed from the due
// time, the stall must delay exactly the requests that arrive while the
// backlog drains: floor((stall-service)/(interval-service)) of them (the
// stall is no multiple of the spacing, so no request lands exactly on
// time). A closed-loop measurement, timed from issue, would see one slow
// request.
func TestStallDelaysLaterRequests(t *testing.T) {
	const (
		interval  = 10_000
		serviceNs = 1_000
		stallNs   = 1_000_500
		stalled   = 100
		n         = 1000
	)
	s := newSchedule(5_000, interval, n, make([]uint32, n))
	var prevDone int64
	for k := 0; k < n; k++ {
		issue := max(s.due(k), prevDone)
		took := int64(serviceNs)
		if k == stalled {
			took = stallNs
		}
		prevDone = issue + took
		s.note(k, issue, prevDone, true, false)
	}
	delayed := 0
	for k := stalled + 1; k < n; k++ {
		if s.lat[k] > serviceNs {
			delayed++
		}
	}
	if want := (stallNs - serviceNs) / (interval - serviceNs); delayed != want {
		t.Errorf("stall delayed %d later requests, want %d", delayed, want)
	}
	if want := uint32(stallNs - interval + serviceNs); s.lat[stalled+1] != want {
		t.Errorf("first request after the stall took %d ns from its due time, want %d", s.lat[stalled+1], want)
	}
	if want := (stallNs - interval) / interval; s.backlog != want {
		t.Errorf("backlog max %d, want %d", s.backlog, want)
	}
	// Requests queued behind the stalled one are the system's delay, not
	// the generator's: only the others enter genLate, all exactly on time.
	if want := int64(n - delayed); s.genLate.n != want || s.genLate.sum != 0 {
		t.Errorf("genLate has %d samples summing %d ns, want %d on-time samples", s.genLate.n, s.genLate.sum, want)
	}
}

func TestScheduleRecordsFailuresAndParking(t *testing.T) {
	s := newSchedule(0, 100, 3, make([]uint32, 3))
	s.note(0, 0, 50, true, false)
	s.note(1, 400, 450, false, true) // held at a safepoint until 400
	s.note(2, 460, 470, true, false) // due 200, queued: not the generator's lateness
	if s.failed != 1 || s.lat[1] != failedSample || s.lat[2] != 270 {
		t.Errorf("lat %v failed %d, want [50 failed 270] with 1 failure", s.lat, s.failed)
	}
	if s.genLate.n != 1 {
		t.Errorf("genLate has %d samples, want only request 0's", s.genLate.n)
	}
	if got := completed(sortedCopy(s.lat)); !slices.Equal(got, []uint32{50, 270}) {
		t.Errorf("completed = %v", got)
	}
}

func TestWindowQuantilesSplitByDueTime(t *testing.T) {
	// Two connections, each one request per 10ns, staggered by 5ns; window
	// width 20ns from t0=0 holds two requests of each.
	a := newSchedule(0, 10, 4, []uint32{1, 2, 30, 40})
	b := newSchedule(5, 10, 4, []uint32{3, failedSample, 50, 60})
	got := windowQuantiles([]*schedule{a, b}, 0, 20, 2, 100)
	if want := []float64{3, 60}; !slices.Equal(got, want) {
		t.Errorf("window maxima %v, want %v (failures excluded)", got, want)
	}
	if got := a.window(-5, 15); !slices.Equal(got, []uint32{1, 2}) {
		t.Errorf("window before start = %v", got)
	}
}

func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 12, End: 14, Parent: 1},  // grandchild: a's, not root's
		{Name: "d", Start: 90, End: 120, Parent: 0}, // sticks out: only 10 covered
	}
	want := []int64{100 - 40 - 10, 20 - 2, 30, 2, 30}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestHistBucketsBoundRelativeError(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 123456789, 1 << 40, math.MaxUint64} {
		b := histBucket(v)
		if b <= prev {
			t.Errorf("bucket of %d = %d, not above %d", v, b, prev)
		}
		prev = b
		lo := histLow(b)
		if lo > v || (v < 64 && lo != v) {
			t.Errorf("bucket %d low bound %d does not hold %d", b, lo, v)
		}
		if float64(v-lo) > float64(v)/64 {
			t.Errorf("value %d in bucket from %d: error above 1/64", v, lo)
		}
	}
	var h hist
	for i := int64(1); i <= 100; i++ {
		h.add(i)
	}
	if h.quantile(50) != 50 || h.quantile(99) != 99 {
		t.Errorf("exact-range quantiles %g %g, want 50 99", h.quantile(50), h.quantile(99))
	}
}

func TestStreamIsSeeded(t *testing.T) {
	m := mix{get: 0.3, put: 0.5, del: 0.05, touch: 0.15}
	a := stream(7, 0, 50_000, keys, zipfTheta, m, 400)
	if b := stream(7, 0, 50_000, keys, zipfTheta, m, 400); !slices.Equal(a, b) {
		t.Fatal("same seed gave different requests")
	}
	if c := stream(8, 0, 50_000, keys, zipfTheta, m, 400); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same requests")
	}
	var ops [numOps]int
	churns, hot := 0, 0
	for _, q := range a {
		ops[q.op]++
		if q.churn {
			churns++
		}
		if int(q.key) >= keys {
			t.Fatalf("key %d out of range", q.key)
		}
	}
	for op, want := range []float64{m.get, m.put, m.del, m.touch} {
		if got := float64(ops[op]) / float64(len(a)); math.Abs(got-want) > 0.01 {
			t.Errorf("op %d share %.3f, want %.2f", op, got, want)
		}
	}
	if want := len(a) / 400; churns < want*8/10 || churns > want*12/10 {
		t.Errorf("%d churns in %d requests, want about %d", churns, len(a), want)
	}
	// Zipf(0.99) over 4096 keys puts about 11% of draws on the hottest key.
	z := newZipf(&rng{s: permSeed}, keys, zipfTheta)
	for _, q := range a {
		if q.key == z.perm[0] {
			hot++
		}
	}
	if got := float64(hot) / float64(len(a)); got < 0.09 || got > 0.13 {
		t.Errorf("hottest key drew %.3f of requests, want about 0.11", got)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metric tables here and the
// benchmark definition at the repository root in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []nameUnit) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if _, ok := serveWorkloads[w.Name]; !ok && w.Name != "paper_sim" {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs", w.Name)
		}
	}
	if !slices.Contains(names, "serve_write") || !slices.Contains(names, "paper_sim") {
		t.Errorf("BENCHMARK.json workloads %v, want serve_write and paper_sim", names)
	}
}

// TestServeRunPassesItsChecks runs a short serve_write end to end, traced,
// with every correctness check armed (oracle verdict, request accounting,
// store walk). Run it under -race to check the connections' coordination.
func TestServeRunPassesItsChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the live engine for a few seconds")
	}
	// Two rounds of 350 ms open loop (one latency window) and 150 ms
	// closed loop (one capacity window).
	res, err := runServe(serveWorkloads["serve_write"], 3, 1, true,
		runShape{warmup: 4096, setupBudget: 5 * time.Second, round: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || len(res.setupS) != setups || len(res.capWindows) != 2 || len(res.p50Win) != 2 {
		t.Fatalf("attempted %d, %d set-ups, %d capacity and %d latency windows, want 2 of each",
			res.attempted, len(res.setupS), len(res.capWindows), len(res.p50Win))
	}
	if res.failed != 0 || res.closedKO != 0 {
		t.Errorf("%d open-loop and %d closed-loop requests failed; a request waits out a full heap", res.failed, res.closedKO)
	}
	if res.layers[lGet].n == 0 || res.layers[lPut].n == 0 || res.layers[lPoll].n == 0 {
		t.Error("traced run recorded no get/put/poll calls")
	}
	if res.rep.Cycles == 0 {
		t.Error("no collection cycle ran")
	}
}
