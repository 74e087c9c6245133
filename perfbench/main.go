// Command perfbench is the repository's benchmark. One run measures one
// workload and prints every metric by name with its unit; the last line of
// standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run is repeated with the benchmark's own calls into the
// program wrapped in spans, and the metrics are the per-layer ones; the
// spans are also written as a Chrome trace that `gcstats check` validates.
//
// Workloads: serve_write drives the live collector's KV store open loop
// from its own seeded generator; paper_sim regenerates Fig 1, Tables 1–3
// and Table 4 on the simulator and checks them byte for byte. serve_read,
// the read-mostly mix, runs the same way but is not in BENCHMARK.json.
// See README.md in this directory for the protocol.
//
//	perfbench -workload serve_write -seed 1 -seconds 40 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mcgc/internal/runmeta"
	"mcgc/internal/telemetry"
	"mcgc/internal/vtime"
)

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name every reported metric and its unit; they
// mirror BENCHMARK.json (TestMetricNamesMatchBenchmarkJSON keeps them in
// step). Every workload reports every name; a layer a workload does not
// exercise reports 0.
var endToEnd = []nameUnit{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_rps", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
}

var perLayer = []nameUnit{
	{"gen.connections", "count"},
	{"gen.late_p99_us", "us"},
	{"gen.backlog_max", "count"},
	{"server.get_p50_ns", "ns"},
	{"server.get_p99_ns", "ns"},
	{"server.put_p50_ns", "ns"},
	{"server.put_p99_ns", "ns"},
	{"server.delete_p50_ns", "ns"},
	{"server.hit_ratio", "ratio"},
	{"server.put_fail_share", "share"},
	{"mut.poll_wait_ms", "ms"},
	{"mut.poll_stalls", "count"},
	{"mut.alloc_p50_ns", "ns"},
	{"mut.alloc_p99_ns", "ns"},
	{"mut.alloc_fail_share", "share"},
	{"mut.store_p50_ns", "ns"},
	{"gc.cycles", "count"},
	{"gc.stw_count", "count"},
	{"gc.stw_total_ms", "ms"},
	{"gc.stw_max_ms", "ms"},
	{"gc.stw_share", "share"},
	{"gc.stw_init_ms", "ms"},
	{"gc.stw_final_ms", "ms"},
	{"gc.mark_ms", "ms"},
	{"gc.sweep_ms", "ms"},
	{"gc.rescans_per_scan", "ratio"},
	{"gc.floating_max", "count"},
	{"gc.pressure_kicks", "count"},
	{"cards.registered", "count"},
	{"cards.cleaned", "count"},
	{"cards.barrier_marks", "count"},
	{"pool.cas_retries", "count"},
	{"pool.overflows", "count"},
	{"pool.max_in_use", "count"},
	{"pool.local_hits", "count"},
	{"pool.steals", "count"},
	{"arena.freelist_retries", "count"},
	{"arena.shard_steals", "count"},
	{"arena.objects_allocated", "count"},
	{"arena.objects_freed", "count"},
	{"pacing.kickoffs", "count"},
	{"pacing.increments", "count"},
	{"pacing.k_max", "ratio"},
	{"pacing.mutator_trace_share", "share"},
	{"goruntime.sched_latency_p99_us", "us"},
	{"goruntime.gc_pause_total_ms", "ms"},
	{"serve.slo_miss_share", "share"},
	{"serve.tail_us", "us"},
	{"serve.request_self_p50_ns", "ns"},
	{"experiments.sim_s", "s"},
	{"experiments.fig1_s", "s"},
	{"experiments.tracing_rates_s", "s"},
	{"experiments.table4_s", "s"},
	{"runner.job_s", "s"},
	{"runner.speedup", "ratio"},
	{"runner.alloc_mb", "MB"},
	{"trace.overhead_share", "share"},
}

type nameUnit struct{ name, unit string }

// Paths relative to the repository root, where the benchmark runs.
const (
	outDir = ".bench_build/perfbench" // result and trace files
	// expectedPath holds paper_sim's expected tables: the output of
	//   gcbench -exp fig1,table1,table2,table3,table4 -scale quick | grep -v 'computed in\|^suite:'
	expectedPath = "perfbench/expected/paper_sim.txt"
)

func main() {
	var (
		workload = flag.String("workload", "", "serve_read, serve_write or paper_sim")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		meta:     hostMeta(".", *workload, *seed),
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		emit(summary{Correct: false, Attempted: max(b.attempted, 1), Failed: max(b.failed, 1), Metrics: map[string]metric{}})
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	meta     meta

	attempted, failed int
	values            map[string]float64
	notes             map[string]string // printed beside a value
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) run() error {
	b.values = map[string]float64{}
	b.notes = map[string]string{}
	var err error
	if w, ok := serveWorkloads[b.workload]; ok {
		err = b.serve(w)
	} else if b.workload == "paper_sim" {
		err = b.sim()
	} else {
		return fmt.Errorf("unknown workload %q (serve_read, serve_write, paper_sim)", b.workload)
	}
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", peakRSSMB())
	return b.report()
}

// serve measures an open-loop serve workload. A traced run first repeats
// the untraced measurement, so the tracing overhead is measured on the same
// process and host state.
func (b *bench) serve(w serveWorkload) error {
	res, err := runServe(w, b.seed, b.seconds, false, defaultShape)
	if res != nil {
		b.attempted, b.failed = res.attempted, res.failed
		b.meta.Connections = res.conns
	}
	if err != nil {
		return err
	}
	if err := generatorValid(res, w); err != nil {
		return err
	}
	if !b.traced {
		b.serveEndToEnd(res)
		return nil
	}
	tr, err := runServe(w, b.seed, b.seconds, true, defaultShape)
	if tr != nil {
		b.attempted, b.failed = tr.attempted, tr.failed
	}
	if err != nil {
		return err
	}
	if err := generatorValid(tr, w); err != nil {
		return err
	}
	err = b.serveLayers(tr)
	b.set("trace.overhead_share", 1-capacity(tr)/capacity(res))
	return err
}

// capacity is the closed-loop phase's median per-window success rate.
func capacity(r *serveResult) float64 { return median(r.capWindows) }

// generatorValid rejects a run whose load generator, rather than the
// system, failed to offer the nominal load.
func generatorValid(r *serveResult, w serveWorkload) error {
	if r.conns > runtime.NumCPU() {
		return fmt.Errorf("generator: %d connections exceed %d CPUs", r.conns, runtime.NumCPU())
	}
	offered := float64(r.openIssued) / r.openS
	if math.Abs(offered-w.rate) > 0.01*w.rate {
		return fmt.Errorf("generator: offered %.0f req/s in the open-loop window, want %.0f ±1%%", offered, w.rate)
	}
	if late := r.genLate.quantile(99) / 1e3; late > genLateLimitUs {
		return fmt.Errorf("generator: issued its own requests late (p99 %.0fµs > %dµs)", late, genLateLimitUs)
	}
	return nil
}

// genLateLimitUs bounds the generator's own lateness: requests not queued
// behind their connection nor held at a safepoint may start at most this
// late at the 99th percentile.
const genLateLimitUs = 1000

func (b *bench) serveEndToEnd(r *serveResult) {
	b.set("setup_s", median(r.setupS))
	b.set("throughput_rps", capacity(r))
	b.set("p50_us", median(r.p50Win)/1e3)
	b.set("p99_us", median(r.p99Win)/1e3)
	// Printed beside the gated metrics: these exist only on the serve
	// workloads, so BENCHMARK.json cannot gate them (see README.md).
	q := func(xs []float64) string {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return fmt.Sprintf("min %.1f, median %.1f, max %.1f us over %d windows", s[0]/1e3, median(s)/1e3, s[len(s)-1]/1e3, len(s))
	}
	b.notes["p99_windows"] = q(r.p99Win)
	b.notes["p50_windows"] = q(r.p50Win)
	ok := completed(r.lat)
	b.notes["p50_p99_whole_us"] = fmt.Sprintf("%.3f / %.3f us (whole open loop, %d completed)",
		float64(percentile(ok, 50))/1e3, float64(percentile(ok, 99))/1e3, len(ok))
	if t, ok := tailOf(ok); ok {
		b.notes["tail_us"] = fmt.Sprintf("%.3f us (%s of %d, %d beyond)", float64(t.Value)/1e3, t.Label(), t.N, t.Beyond)
	}
	b.notes["slo_miss_share"] = fmt.Sprintf("%.6f share (>%dms or failed, of %d open-loop requests)",
		sloMissShare(r.lat, sloNs), sloNs/1_000_000, r.attempted)
	b.notes["stw_max_ms"] = fmt.Sprintf("%.3f ms", ms(r.rep.STWMax))
	b.notes["stw_share"] = fmt.Sprintf("%.6f share", r.rep.STWTotal.Seconds()/r.wallS)
	b.notes["closed_loop"] = fmt.Sprintf("%d succeeded, %d failed in %.1fs at full speed",
		r.closedOK, r.closedKO, r.closedS)
	b.notes["heap_wait_max_ms"] = fmt.Sprintf("%.3f ms (longest wait of one request for an exhausted heap)",
		float64(r.heapWaitMax)/1e6)
	b.notes["gen"] = fmt.Sprintf("%d connections, offered %.0f req/s, late p99 %.1fus, backlog max %d",
		r.conns, float64(r.openIssued)/r.openS, r.genLate.quantile(99)/1e3, r.backlogMax)
}

func (b *bench) serveLayers(r *serveResult) error {
	for _, nu := range perLayer {
		b.set(nu.name, 0)
	}
	rep := &r.rep
	b.set("gen.connections", float64(r.conns))
	b.set("gen.late_p99_us", r.genLate.quantile(99)/1e3)
	b.set("gen.backlog_max", float64(r.backlogMax))
	b.set("server.get_p50_ns", r.layers[lGet].quantile(50))
	b.set("server.get_p99_ns", r.layers[lGet].quantile(99))
	b.set("server.put_p50_ns", r.layers[lPut].quantile(50))
	b.set("server.put_p99_ns", r.layers[lPut].quantile(99))
	b.set("server.delete_p50_ns", r.layers[lDelete].quantile(50))
	b.set("server.hit_ratio", ratio(r.outcomes[oHit], r.layers[lGet].n))
	b.set("server.put_fail_share", ratio(r.outcomes[oPutFail], r.layers[lPut].n))
	b.set("mut.poll_wait_ms", float64(r.pollWait)/1e6)
	b.set("mut.poll_stalls", float64(r.pollStalls))
	b.set("mut.alloc_p50_ns", r.layers[lAlloc].quantile(50))
	b.set("mut.alloc_p99_ns", r.layers[lAlloc].quantile(99))
	b.set("mut.alloc_fail_share", ratio(r.outcomes[oAllocFail], r.layers[lAlloc].n))
	b.set("mut.store_p50_ns", r.layers[lStore].quantile(50))
	b.set("gc.cycles", float64(rep.Cycles))
	b.set("gc.stw_count", float64(rep.STWCount))
	b.set("gc.stw_total_ms", ms(rep.STWTotal))
	b.set("gc.stw_max_ms", ms(rep.STWMax))
	b.set("gc.stw_share", rep.STWTotal.Seconds()/r.wallS)
	b.set("gc.mark_ms", ms(rep.MarkTotal))
	b.set("gc.sweep_ms", ms(rep.SweepTotal))
	b.set("gc.rescans_per_scan", ratio(rep.Rescans, rep.Scans))
	b.set("gc.floating_max", float64(rep.FloatingMax))
	b.set("gc.pressure_kicks", float64(rep.PressureKicks))
	b.set("cards.registered", float64(rep.CardsRegistered))
	b.set("cards.cleaned", float64(rep.CardsCleaned))
	b.set("cards.barrier_marks", float64(rep.BarrierMarks))
	b.set("pool.cas_retries", float64(rep.PoolCASRetries))
	b.set("pool.overflows", float64(rep.Overflows))
	b.set("pool.max_in_use", float64(rep.PoolMaxInUse))
	b.set("pool.local_hits", float64(rep.PoolLocalHits))
	b.set("pool.steals", float64(rep.PoolSteals))
	b.set("arena.freelist_retries", float64(rep.FreeListRetries))
	b.set("arena.shard_steals", float64(rep.ArenaShardSteals))
	b.set("arena.objects_allocated", float64(rep.ObjectsAllocated))
	b.set("arena.objects_freed", float64(rep.ObjectsFreed))
	b.set("pacing.kickoffs", float64(rep.Kickoffs))
	b.set("pacing.increments", float64(rep.PacedIncrements))
	b.set("pacing.k_max", rep.KMax)
	b.set("pacing.mutator_trace_share", ratio(rep.TraceMutatorWords,
		rep.TraceMutatorWords+rep.TraceBgWords+rep.TraceDedicatedWords))
	b.set("goruntime.sched_latency_p99_us", r.rt.schedP99Us())
	b.set("goruntime.gc_pause_total_ms", r.rt.gcPauseMs())
	b.set("serve.slo_miss_share", sloMissShare(r.lat, sloNs))
	if t, ok := tailOf(completed(r.lat)); ok {
		b.set("serve.tail_us", float64(t.Value)/1e3)
	}
	var selfs []uint32
	for _, spans := range r.spans {
		for i, st := range selfTimes(spans) {
			if spans[i].Parent < 0 {
				selfs = append(selfs, clampNs(st))
			}
		}
	}
	b.set("serve.request_self_p50_ns", float64(percentile(sortedCopy(selfs), 50)))

	// Write the trace: the engine's own timeline and one track per
	// connection with the sampled request trees, then read the engine's
	// STW phase spans back from it.
	run := r.col.StartRun(runName("perfbench", b.seed))
	for i, spans := range r.spans {
		addSpans(run.Timeline, int64(i+1), fmt.Sprintf("conn%d", i), spans)
	}
	path, err := b.writeTrace(r.col)
	if err != nil {
		return err
	}
	initMs, finalMs, err := longestSpans(path, "stw.init", "stw.final")
	if err != nil {
		return err
	}
	b.set("gc.stw_init_ms", initMs)
	b.set("gc.stw_final_ms", finalMs)
	return nil
}

// sim measures paper_sim: the end-to-end metrics, or in a traced run the
// per-layer ones, of the same passes.
func (b *bench) sim() error {
	clk := clock(time.Now())
	expected, err := readExpected(expectedPath)
	if err != nil {
		return err
	}
	res, err := runSim(expected, b.seconds, clk)
	if res != nil {
		b.attempted, b.failed = res.jobs, res.failed
	}
	if err != nil {
		return err
	}
	if !b.traced {
		var jobs []float64
		for _, p := range res.passes {
			for _, j := range p.jobs {
				jobs = append(jobs, j.WallSeconds)
			}
		}
		sort.Float64s(jobs)
		b.set("setup_s", median(res.setupS))
		b.set("throughput_rps", float64(len(jobs))/sum(passWalls(res)))
		b.set("p50_us", quantileF(jobs, 50)*1e6)
		b.set("p99_us", quantileF(jobs, 99)*1e6)
		b.notes["sim_s"] = fmt.Sprintf("%.4f s (median of %d passes)", median(passWalls(res)), len(res.passes))
		return nil
	}
	// paper_sim records its handful of spans per pass in every run, so a
	// traced run is the untraced one: there is no tracing overhead to
	// measure, and trace.overhead_share stays 0.
	for _, nu := range perLayer {
		b.set(nu.name, 0)
	}
	b.set("experiments.sim_s", median(passWalls(res)))
	var fig1, rates, t4, jobS, wall, alloc []float64
	for _, p := range res.passes {
		fig1 = append(fig1, p.expS[0])
		rates = append(rates, p.expS[1])
		t4 = append(t4, p.expS[2])
		var js, ws, ab float64
		for _, st := range p.stats {
			js += st.JobSeconds
			ws += st.WallSeconds
			for _, j := range st.Jobs {
				ab += float64(j.AllocBytes)
			}
		}
		jobS = append(jobS, js)
		wall = append(wall, ws)
		alloc = append(alloc, ab/(1<<20))
	}
	b.set("experiments.fig1_s", median(fig1))
	b.set("experiments.tracing_rates_s", median(rates))
	b.set("experiments.table4_s", median(t4))
	b.set("runner.job_s", median(jobS))
	b.set("runner.speedup", sum(jobS)/sum(wall))
	b.set("runner.alloc_mb", median(alloc))
	b.set("goruntime.sched_latency_p99_us", res.rt.schedP99Us())
	b.set("goruntime.gc_pause_total_ms", res.rt.gcPauseMs())

	col := telemetry.NewCollector(true)
	run := col.StartRun(runName("perfbench", b.seed))
	for _, p := range res.passes {
		addSpans(run.Timeline, 1, "sim", p.spans)
	}
	_, err = b.writeTrace(col)
	return err
}

func passWalls(r *simResult) []float64 {
	var out []float64
	for _, p := range r.passes {
		out = append(out, p.wallS)
	}
	return out
}

// report prints every metric by name with its unit, then the summary line.
func (b *bench) report() error {
	list := endToEnd
	if b.traced {
		list = perLayer
	}
	m, err := json.Marshal(b.meta)
	if err != nil {
		return err
	}
	fmt.Printf("meta: %s\n", m)
	fmt.Printf("%s: attempted %d, failed %d\n", b.workload, b.attempted, b.failed)
	s := summary{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, nu := range list {
		v, ok := b.values[nu.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", nu.name)
		}
		fmt.Printf("%-32s %.6g %s\n", nu.name, v, nu.unit)
		s.Metrics[nu.name] = metric{Value: v, Unit: nu.unit}
	}
	names := make([]string, 0, len(b.notes))
	for n := range b.notes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %s\n", n, b.notes[n])
	}
	if err := b.writeResult(s); err != nil {
		return err
	}
	emit(s)
	return nil
}

// writeResult keeps the run's metadata, metrics and notes next to its trace.
func (b *bench) writeResult(s summary) error {
	out, err := json.MarshalIndent(struct {
		Meta    meta              `json:"meta"`
		Summary summary           `json:"summary"`
		Notes   map[string]string `json:"notes,omitempty"`
	}{b.meta, s, b.notes}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.file("result.json"), append(out, '\n'), 0o644)
}

func (b *bench) file(suffix string) string {
	t := 0
	if b.traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.%s", b.workload, b.seed, t, suffix))
}

func (b *bench) writeTrace(col *telemetry.Collector) (string, error) {
	path := b.file("trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = col.WriteTrace(f, runmeta.Suite{Scale: b.workload, J: 1})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

func emit(s summary) {
	out, err := json.Marshal(s)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func runName(name string, seed uint64) runmeta.Run {
	return runmeta.Run{Exp: "perfbench", Name: name, Seed: int64(seed)}
}

// addSpans puts one track's spans on a timeline, each tagged with its
// request id.
func addSpans(tl *telemetry.Timeline, tid int64, track string, spans []span) {
	tl.SetThreadName(tid, track)
	for _, s := range spans {
		tl.Span(tid, s.Name, vtime.Time(s.Start), vtime.Time(s.End), telemetry.Arg{Key: "req", Val: float64(s.Req)})
	}
}

// longestSpans reads a written Chrome trace back and returns the longest
// span of each of two names, in milliseconds.
func longestSpans(path, a, b string) (float64, float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	var ma, mb float64
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph != "X":
		case e.Name == a:
			ma = max(ma, e.Dur/1e3)
		case e.Name == b:
			mb = max(mb, e.Dur/1e3)
		}
	}
	if ma == 0 || mb == 0 {
		return 0, 0, errors.New("trace holds no " + a + " or " + b + " span")
	}
	return ma, mb, nil
}

func clock(base time.Time) func() int64 { return func() int64 { return int64(time.Since(base)) } }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// median is the middle value (mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileF is the nearest-rank percentile of sorted float samples.
func quantileF(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(int64(p*ppm10/100+0.5), len(sorted))-1]
}
