package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mcgc/internal/heapsim"
	"mcgc/internal/live"
	"mcgc/internal/pacing"
	"mcgc/internal/server"
	"mcgc/internal/telemetry"
)

// serveWorkload is one open-loop traffic shape against the KV store.
type serveWorkload struct {
	mix      mix
	rate     float64 // offered requests per second, all connections together
	churnOps int     // mean requests between connection churns (0: none)
}

var serveWorkloads = map[string]serveWorkload{
	// Write-heavy with churn: the collector runs all the time.
	"serve_write": {mix: mix{get: 0.30, put: 0.50, del: 0.05, touch: 0.15}, rate: 200_000, churnOps: 400},
	// Read-mostly: the request path carries the load, the collector idles.
	// A diagnostic workload, not in BENCHMARK.json: with the collector idle
	// most of the time, its p50, p99 and capacity jump between the idle and
	// the collecting level, so they cannot be gated (see README.md).
	"serve_read": {mix: mix{get: 0.95, put: 0.02, del: 0.02, touch: 0.01}, rate: 500_000},
}

// Fixed shape of every serve run: the gcserve defaults with Formula pacing.
const (
	keys       = 4096
	zipfTheta  = 0.99
	valueObjs  = 2 // server.StoreConfig default: head entry + one payload object
	rootsPer   = 8
	rootSess   = 0 // session-event chain, dropped on churn
	rootPin    = 1 // last GET hit
	sessionCap = 16

	setups  = 3       // set-ups per run; setup_s is their median
	ringLen = 1 << 18 // pre-generated requests per connection (reused cyclically)

	sloNs = 1_000_000 // latency limit behind slo_miss_share

	// heapWaitNs bounds how long one request waits out an exhausted heap
	// before it fails.
	heapWaitNs = 500_000_000

	// yieldAheadNs: an idle connection yields its processor while its next
	// request is further away than this, and spins on the clock after. A
	// yield can hand the processor to a tracer for a while: with 1µs,
	// serve_write's p50 read ~0.3µs higher than with 4µs in paired runs.
	yieldAheadNs = 4_000

	// capWindowNs is the closed-loop throughput window; throughput_rps is
	// the median over the phase's windows.
	capWindowNs = 100_000_000

	// latWindowNs is the open-loop latency window; p50_us and p99_us are
	// medians over the phase's windows.
	latWindowNs = 250_000_000
)

// Store entry layout, as documented in internal/server/store.go: a value
// chain is the head entry plus payload objects linked from slotPayload
// through slotNext.
const (
	slotNext    = 0
	slotPayload = 2
)

func engineConfig(conns int, dur time.Duration, seed int64) live.Config {
	p := pacing.Default()
	return live.Config{
		Objects:         1 << 15,
		RefsPerObject:   4,
		RootsPerMutator: rootsPer,
		ExtMutators:     conns,
		Tracers:         2,
		BgTracers:       1,
		Packets:         256,
		PacketCap:       32,
		AllocBatch:      16,
		CardPasses:      2,
		Duration:        dur,
		Seed:            seed,
		PacingOptions:   live.PacingOptions{Pacing: &p},
	}
}

// runShape sizes the parts of a serve run around the measurement.
type runShape struct {
	warmup      int           // closed-loop warm-up requests per set-up, all connections
	setupBudget time.Duration // engine time reserved in front for the set-ups
	round       time.Duration // nominal length of one round (open loop, then closed loop)
}

var defaultShape = runShape{warmup: 1 << 18, setupBudget: 4 * time.Second, round: 10 * time.Second}

// serveResult is what one serve run measured.
type serveResult struct {
	conns       int
	setupS      []float64 // each set-up's seconds (construction included)
	openS       float64   // open-loop time, all rounds
	closedS     float64   // closed-loop time, all rounds
	lat         []uint32  // sorted open-loop latencies, failures (failedSample) last
	p50Win      []float64 // per latWindowNs window of the open loop, all rounds: p50 (ns)
	p99Win      []float64 // and p99 (ns)
	attempted   int       // open-loop requests, at the nominal rate
	failed      int
	closedKO    int // closed-loop requests that failed (heap exhausted for heapWaitNs)
	openIssued  int // open-loop requests issued before the window closed
	closedOK    int
	heapWaitMax int64     // longest wait of one request for an exhausted heap (ns)
	capWindows  []float64 // closed-loop successes per second, per capWindowNs window
	genLate     hist
	backlogMax  int
	outcomes    [numOutcomes]int64
	wallS       float64 // engine Run wall time
	rep         live.Report
	layers      [numLayers]hist
	pollWait    int64
	pollStalls  int64
	spans       [][]span // sampled trees per connection
	rt          runtimeStats
	col         *telemetry.Collector
}

// conn is one connection: a goroutine owning one external mutator.
type conn struct {
	id      int
	r       *serveRun
	m       *live.Mut
	ring    []req
	pos     int
	session heapsim.Addr
	tr      *tracer

	interval, offset   int64       // open-loop spacing and stagger
	planned            int         // open-loop requests per round
	latBuf             []uint32    // planned samples per round, round after round
	scheds             []*schedule // one per round
	closedOK, closedKO int
	winOK              []int64 // closed-loop successes per capWindowNs window, all rounds
	issuedInWindow     int
	heapWaitMax        int64 // longest wait for an exhausted heap (ns)
	err                error
}

// serveRun coordinates the connections of one engine run.
type serveRun struct {
	w       serveWorkload
	shape   runShape
	eng     *live.Engine
	stores  []*server.Store
	conns   []*conn
	base    time.Time
	rounds  int
	openNs  int64 // per round
	closeNs int64 // per round
	traced  bool
	bar     barrier
	marks   []int64 // barrier release times, in order
	t0      int64   // measurement start: the first round's first due time
}

func (r *serveRun) clk() int64 { return int64(time.Since(r.base)) }

// barrier lines the connections up between phases. Waiting connections keep
// polling: a connection blocked without polling would stall every
// safepoint.
type barrier struct {
	n     int64
	count atomic.Int64
	gen   atomic.Int64
	stamp atomic.Int64
}

// wait returns the release time, or false once the engine has shut down:
// a run past its deadline is abandoned, not waited out.
func (b *barrier) wait(m *live.Mut, clk func() int64, down func() bool) (int64, bool) {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.stamp.Store(clk())
		b.gen.Add(1)
		return b.stamp.Load(), !down()
	}
	for b.gen.Load() == g {
		if down() {
			return 0, false
		}
		m.Poll()
		runtime.Gosched()
	}
	return b.stamp.Load(), !down()
}

// runServe builds the engine, sets up `setups` stores in turn (prefill and
// warm-up, timed), then measures rounds of open-loop and closed-loop phases
// on the last one, checks the outcome and returns the measurements.
func runServe(w serveWorkload, seed uint64, seconds float64, traced bool, shape runShape) (*serveResult, error) {
	conns := min(2, runtime.NumCPU())
	// The measured time is cut into rounds of about shape.round. In each
	// round the open-loop phase gets 70% and the closed-loop capacity phase
	// the rest, so both phases sample the whole run and a host disturbance
	// of a few seconds moves neither median much. The engine deadline
	// leaves a set-up budget in front; connections idle-poll from the end of
	// measurement to it.
	rounds := max(1, int(math.Round(seconds/shape.round.Seconds())))
	roundNs := int64(seconds / float64(rounds) * 1e9)
	openNs := roundNs * 7 / 10
	closeNs := roundNs - openNs
	dur := shape.setupBudget + time.Duration(int64(rounds)*roundNs)

	rings := make([][]req, conns)
	for i := range rings {
		rings[i] = stream(seed, i, ringLen, keys, zipfTheta, w.mix, w.churnOps)
	}

	res := &serveResult{conns: conns}
	rt0 := readRuntime()
	constructStart := time.Now()
	cfg := engineConfig(conns, dur, int64(seed))
	if traced {
		res.col = telemetry.NewCollector(true)
		run := res.col.StartRun(runName("engine", seed))
		cfg.Reg, cfg.TL = run.Registry, run.Timeline
	}
	r := &serveRun{w: w, shape: shape, eng: live.NewEngine(cfg), rounds: rounds, openNs: openNs, closeNs: closeNs, traced: traced}
	for i := 0; i < setups; i++ {
		r.stores = append(r.stores, server.NewStore(r.eng, server.StoreConfig{ValueObjs: valueObjs}))
	}
	construct := time.Since(constructStart)
	r.bar.n = int64(conns)

	// Each connection offers rate/conns requests per second, staggered by
	// interval/conns against the others. Their latency samples share one
	// buffer allocated up front, so the run's memory does not grow with
	// its own bookkeeping.
	interval := int64(float64(conns) / w.rate * 1e9)
	latBuf := make([]uint32, 0, int(openNs/interval+1)*conns*rounds)
	for i := 0; i < conns; i++ {
		c := &conn{id: i, r: r, m: r.eng.ExtMutator(i), ring: rings[i], interval: interval,
			offset: int64(i) * interval / int64(conns)}
		c.planned = int((openNs - c.offset + interval - 1) / interval)
		n := c.planned * rounds
		c.latBuf = latBuf[len(latBuf) : len(latBuf)+n]
		latBuf = latBuf[:len(latBuf)+n]
		r.conns = append(r.conns, c)
	}

	var wg sync.WaitGroup
	r.base = time.Now()
	for _, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.life()
		}()
	}
	wallStart := time.Now()
	res.rep = r.eng.Run()
	res.wallS = time.Since(wallStart).Seconds()
	wg.Wait()
	res.rt = readRuntime().since(rt0)

	for _, c := range r.conns {
		if c.err != nil {
			return nil, c.err
		}
	}
	if err := oracleVerdict(&res.rep); err != nil {
		return nil, err
	}
	// marks: per set-up start, prefilled, warmed (and cleared, except the
	// last), then measurement end.
	for i := 0; i < setups; i++ {
		start, warmed := r.marks[4*i], r.marks[4*i+2]
		res.setupS = append(res.setupS, (construct + time.Duration(warmed-start)).Seconds())
	}
	res.openS = float64(int64(rounds)*openNs) / 1e9
	res.closedS = float64(int64(rounds)*closeNs) / 1e9

	// Latency windows are cut per round, from the round's start.
	nWin := int(openNs / latWindowNs)
	for k := 0; k < rounds; k++ {
		var scheds []*schedule
		for _, c := range r.conns {
			scheds = append(scheds, c.scheds[k])
		}
		start := r.t0 + int64(k)*roundNs
		res.p50Win = append(res.p50Win, windowQuantiles(scheds, start, latWindowNs, nWin, 50)...)
		res.p99Win = append(res.p99Win, windowQuantiles(scheds, start, latWindowNs, nWin, 99)...)
	}
	for _, c := range r.conns {
		res.openIssued += c.issuedInWindow
		res.closedOK += c.closedOK
		res.heapWaitMax = max(res.heapWaitMax, c.heapWaitMax)
		for w, ok := range c.winOK {
			if w >= len(res.capWindows) {
				res.capWindows = append(res.capWindows, 0)
			}
			res.capWindows[w] += float64(ok) / (capWindowNs / 1e9)
		}
		res.closedKO += c.closedKO
		for _, s := range c.scheds {
			res.genLate.merge(&s.genLate)
			res.backlogMax = max(res.backlogMax, s.backlog)
			res.attempted += s.n
			res.failed += s.failed
			done := 0
			for _, l := range s.lat {
				if l != failedSample {
					done++
				}
			}
			if done+s.failed != s.n {
				return nil, fmt.Errorf("conn %d: attempted %d != completed %d + failed %d", c.id, s.n, done, s.failed)
			}
		}
		if c.tr != nil {
			for o, n := range c.tr.outcomes {
				res.outcomes[o] += n
			}
			for l := range res.layers {
				res.layers[l].merge(&c.tr.layers[l])
			}
			res.pollWait += c.tr.pollWait
			res.pollStalls += c.tr.pollStalls
			res.spans = append(res.spans, c.tr.spans)
		}
	}
	// The connections' segments tile latBuf: sort it in place for the
	// whole-run figures rather than copy millions of samples.
	res.lat = latBuf
	slices.Sort(res.lat)
	return res, nil
}

// oracleVerdict fails a run whose collector lost a live object, broke an
// invariant the oracle checks, or wedged.
func oracleVerdict(rep *live.Report) error {
	var errs []error
	if rep.LostObjects != 0 {
		errs = append(errs, fmt.Errorf("oracle: %d live objects lost", rep.LostObjects))
	}
	for _, v := range rep.Violations {
		errs = append(errs, fmt.Errorf("oracle: %s", v))
	}
	if rep.Wedged {
		errs = append(errs, fmt.Errorf("engine wedged in %s: %s", rep.WedgePhase, rep.WedgeDiagnosis))
	}
	return errors.Join(errs...)
}

// life is one connection's whole run: the set-ups, the measured phases, the
// store check, then idle polling until the engine shuts down.
func (c *conn) life() {
	r := c.r
	defer c.m.Retire()
	defer func() {
		for !r.eng.ShuttingDown() {
			c.m.Poll()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var t0 int64
	step := func() bool {
		t, ok := r.bar.wait(c.m, r.clk, r.eng.ShuttingDown)
		if c.id == 0 {
			r.marks = append(r.marks, t)
		}
		t0 = t
		return ok
	}
	overran := fmt.Errorf("conn %d: set-up overran its %v budget", c.id, r.shape.setupBudget)
	for i, st := range r.stores {
		if !step() { // set-up start
			c.err = overran
			return
		}
		for k := c.id; k < keys && c.err == nil; k += len(r.conns) {
			c.prefill(st, uint64(k))
		}
		if !step() { // prefilled
			c.err = overran
			return
		}
		for n := 0; n < r.shape.warmup/len(r.conns); n++ {
			c.do(st, c.nextReq())
		}
		if !step() { // warmed: the set-up is over
			c.err = overran
			return
		}
		if i < len(r.stores)-1 {
			for k := c.id; k < keys; k += len(r.conns) {
				st.Delete(c.m, uint64(k))
			}
			c.dropSession()
			if !step() { // cleared
				c.err = overran
				return
			}
		}
	}
	if c.id == 0 {
		r.t0 = t0
	}
	st := r.stores[len(r.stores)-1]
	// The per-layer figures describe the open loop, at the nominal rate.
	// The closed loop pays the same tracing cost on a scratch tracer, so
	// traced and untraced capacity compare like for like.
	var open, scratch *tracer
	if r.traced {
		open, scratch = newTracer(r.clk), newTracer(r.clk)
	}
	roundNs := r.openNs + r.closeNs
	for k := 0; k < r.rounds; k++ {
		start := t0 + int64(k)*roundNs
		c.tr = open
		c.openLoop(st, k, start)
		c.tr = scratch
		c.closedLoop(st, start+r.openNs, start+roundNs)
	}
	c.tr = open
	if r.eng.ShuttingDown() {
		c.err = fmt.Errorf("conn %d: engine shut down before measurement ended", c.id)
		return
	}
	if c.id == 0 {
		if err := checkStore(c.m, st); err != nil {
			c.err = err
		}
	}
	step()
}

// prefill stores key, waiting out heap exhaustion: a full heap during
// set-up only means the previous set-up's garbage is not collected yet.
func (c *conn) prefill(st *server.Store, key uint64) {
	deadline := c.r.clk() + int64(time.Second)
	for !st.Put(c.m, key) {
		if c.r.clk() > deadline || c.r.eng.ShuttingDown() {
			c.err = fmt.Errorf("conn %d: prefill put of key %d failed: heap full for 1s or engine stopped", c.id, key)
			return
		}
		c.m.Poll()
		time.Sleep(50 * time.Microsecond)
	}
}

func (c *conn) nextReq() req {
	q := c.ring[c.pos]
	if c.pos++; c.pos == len(c.ring) {
		c.pos = 0
	}
	return q
}

// openLoop issues one round's requests on a fixed schedule from t0 for the
// open-loop window: this connection's share of the offered rate, staggered
// against the other connections. A request due while an earlier one still
// runs waits for it, and its latency counts from its due time.
func (c *conn) openLoop(st *server.Store, round int, t0 int64) {
	r := c.r
	s := newSchedule(t0+c.offset, c.interval, c.planned, c.latBuf[round*c.planned:])
	c.scheds = append(c.scheds, s)
	windowEnd := t0 + r.openNs
	for k := 0; k < s.n; k++ {
		due := s.due(k)
		now := r.clk()
		parked := false
		for now < due {
			// Idle: keep answering safepoints, and yield the processor to
			// the collector's goroutines unless the request is about due.
			t := c.tr.begin()
			c.m.Poll()
			c.tr.end(lPoll, t)
			polled := r.clk()
			if polled-now > pollStallNs {
				parked = true
			}
			if due-polled > yieldAheadNs {
				runtime.Gosched()
			}
			now = r.clk()
		}
		if now < windowEnd {
			c.issuedInWindow++
		}
		ok := c.do(st, c.nextReq())
		s.note(k, now, r.clk(), ok, parked)
	}
}

// closedLoop issues requests back to back from start until end: the
// capacity phase. Successes are counted per capWindowNs window, so one
// window disturbed by the host moves the reported median little.
func (c *conn) closedLoop(st *server.Store, start, end int64) {
	r := c.r
	base := len(c.winOK)
	c.winOK = append(c.winOK, make([]int64, (end-start)/capWindowNs)...)
	win := base
	for i := 0; ; i++ {
		if i%16 == 0 {
			now := r.clk()
			if now >= end || r.eng.ShuttingDown() {
				return
			}
			win = base + min(int(max(now-start, 0)/capWindowNs), len(c.winOK)-base-1)
		}
		if c.do(st, c.nextReq()) {
			c.closedOK++
			c.winOK[win]++
		} else {
			c.closedKO++
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// do runs one request and reports whether it succeeded: a GET or DELETE
// always does; a PUT or session touch fails when the heap is exhausted.
func (c *conn) do(st *server.Store, q req) bool {
	tr := c.tr
	tr.request()
	rt, rs := tr.enter(lRequest)
	t := tr.begin()
	c.m.Poll()
	tr.end(lPoll, t)
	ok := true
	key := uint64(q.key)
	switch q.op {
	case opGet:
		t = tr.begin()
		if st.Get(c.m, key, rootPin) {
			tr.count(oHit)
		}
		tr.end(lGet, t)
	case opPut:
		for since := int64(0); ; {
			t = tr.begin()
			ok = st.Put(c.m, key)
			tr.end(lPut, t)
			if ok {
				break
			}
			tr.count(oPutFail)
			if !c.heapFull(&since) {
				break
			}
		}
	case opDelete:
		t = tr.begin()
		st.Delete(c.m, key)
		tr.end(lDelete, t)
	case opTouch:
		ok = c.touch()
	}
	if q.churn {
		c.churn()
	}
	tr.exit(lRequest, rt, rs)
	return ok
}

// heapFull is called after an allocation found the heap exhausted. It
// keeps answering safepoints so the collector can free memory, and reports
// whether to try again: a request waits out a full heap, as a server's
// allocation would stall, for at most heapWaitNs from its first failed
// attempt (*since, 0 before it). The wait counts in the request's latency.
func (c *conn) heapFull(since *int64) bool {
	now := c.r.clk()
	if *since == 0 {
		*since = now
	}
	if now-*since > heapWaitNs || c.r.eng.ShuttingDown() {
		return false
	}
	t := c.tr.begin()
	c.m.Poll()
	c.tr.end(lPoll, t)
	runtime.Gosched()
	if w := c.r.clk() - *since; w > c.heapWaitMax {
		c.heapWaitMax = w
	}
	return true
}

// touch prepends a fresh event to the connection's session chain and cuts
// the chain at sessionCap, the way the server's own clients keep sessions.
func (c *conn) touch() bool {
	tr := c.tr
	t0, saved := tr.enter(lTouch)
	defer tr.exit(lTouch, t0, saved)
	var e heapsim.Addr
	for since := int64(0); ; {
		t := tr.begin()
		a, ok := c.m.Alloc()
		tr.end(lAlloc, t)
		if ok {
			e = a
			break
		}
		tr.count(oAllocFail)
		if !c.heapFull(&since) {
			return false
		}
	}
	t := tr.begin()
	t = tr.begin()
	c.m.Store(e, slotNext, c.session)
	tr.end(lStore, t)
	t = tr.begin()
	c.m.SetRoot(rootSess, e)
	tr.end(lSetRoot, t)
	c.session = e
	n, p := 1, e
	for {
		t = tr.begin()
		next := c.m.Load(p, slotNext)
		tr.end(lLoad, t)
		if next == heapsim.Nil {
			return true
		}
		if n++; n > sessionCap {
			t = tr.begin()
			c.m.Store(p, slotNext, heapsim.Nil)
			tr.end(lStore, t)
			return true
		}
		p = next
	}
}

// churn drops every root the connection holds, so its session chain and
// pinned entry become garbage, as a reconnecting client would. The server's
// own clients also sleep 200µs to "reconnect"; an open-loop connection does
// not, because that pause would be the generator's own stall.
func (c *conn) churn() {
	tr := c.tr
	t0, saved := tr.enter(lChurn)
	c.dropSession()
	t := tr.begin()
	c.m.Poll()
	tr.end(lPoll, t)
	tr.exit(lChurn, t0, saved)
}

func (c *conn) dropSession() {
	for i := 0; i < rootsPer; i++ {
		t := c.tr.begin()
		c.m.SetRoot(i, heapsim.Nil)
		c.tr.end(lSetRoot, t)
	}
	c.session = heapsim.Nil
}

// checkStore walks every stored value: each key must be in range and each
// value chain must hold exactly valueObjs objects. It runs on a live
// connection (Mut.Load is only valid before Retire) and takes each shard
// lock in turn without polling inside it.
func checkStore(m *live.Mut, st *server.Store) error {
	var errs []error
	n := 0
	st.Entries(func(key uint64, head heapsim.Addr) {
		n++
		if key >= keys {
			errs = append(errs, fmt.Errorf("store: key %d out of range", key))
		}
		objs := 1
		for p := m.Load(head, slotPayload); p != heapsim.Nil && objs <= valueObjs; p = m.Load(p, slotNext) {
			objs++
		}
		if objs != valueObjs && len(errs) < 8 {
			errs = append(errs, fmt.Errorf("store: key %d holds a %d-object chain, want %d", key, objs, valueObjs))
		}
	})
	if n == 0 {
		errs = append(errs, errors.New("store: empty after the run"))
	}
	return errors.Join(errs...)
}
