package live

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"mcgc/internal/faultinject"
	"mcgc/internal/pacing"
	"mcgc/internal/vtime"
)

// engineStats are the counters shared by mutator, tracer and driver
// goroutines; everything here is atomic. Each field is named after the
// Report field it fills (durations are nanoseconds), so finishReport copies
// them all in one loop. Driver-only measurements (pauses, per-cycle oracle
// results) go straight into the Report.
type engineStats struct {
	Marks          atomic.Int64 // objects claimed grey
	Scans          atomic.Int64 // objects scanned from the pool
	Rescans        atomic.Int64 // objects rescanned by card cleaning
	Deferred       atomic.Int64 // unsafe objects pushed to the deferred pool
	DeferredDrains atomic.Int64 // DrainDeferred invocations that found work
	DeferOverflows atomic.Int64 // deferred pushes degraded to card dirtying
	Overflows      atomic.Int64 // pushes degraded to mark+dirty (Section 4.3)
	CardPasses     atomic.Int64 // concurrent cleaning passes

	MarkTotal         atomic.Int64 // concurrent mark phase wall time
	SweepTotal        atomic.Int64 // concurrent sweep wall time
	TracerActiveTotal atomic.Int64 // full markingActive window (mark + STW final + oracle)

	ObjectsAllocated atomic.Int64
	ObjectsFreed     atomic.Int64
	AllocFailed      atomic.Int64
	AllocFences      atomic.Int64 // one per published batch (Section 5.2)
	ForcedFences     atomic.Int64 // one per mutator per handshake (5.3)
	MutatorOps       atomic.Int64

	PressureKicks   atomic.Int64 // idle waits cut short by allocation pressure
	RescanRedirties atomic.Int64 // card rescans re-dirtied for unpublished objects

	// Degradation-ladder counters (degrade.go): rung-1 blocked-allocation
	// waits (and how many expired unfed), the total time spent blocked, and
	// rung-2 emergency STW collections.
	BackpressureWaits    atomic.Int64
	BackpressureTimeouts atomic.Int64
	BackpressureTotal    atomic.Int64
	EmergencyCycles      atomic.Int64

	// Per-party tracing attribution: each successful scanObject charges its
	// slot words to exactly one of these, so their sum reconciles with
	// scans times the per-object slot count.
	TraceMutatorWords   atomic.Int64 // scans paid as mutator allocation tax
	TraceBgWords        atomic.Int64 // scans by throttled background tracers
	TraceDedicatedWords atomic.Int64 // scans by dedicated tracers

	Kickoffs atomic.Int64 // cycles started by the kickoff formula
}

// Report is what one Engine.Run hands back. A field tagged metric:"name" is
// written to the run's registry as the counter of that name at the end of
// every run (durations in nanoseconds).
type Report struct {
	Cycles     int   `metric:"live.cycles"`
	MutatorOps int64 `metric:"live.mutator_ops"`

	ObjectsAllocated int64 `metric:"live.objects_allocated"`
	ObjectsFreed     int64 `metric:"live.objects_freed"`
	AllocFailed      int64 `metric:"live.alloc_failed"`

	Marks    int64 `metric:"live.marks"`
	Scans    int64 `metric:"live.scans"`
	Rescans  int64 `metric:"live.rescans"`
	Deferred int64 `metric:"live.deferred"`

	DeferredDrains int64
	Overflows      int64 `metric:"gc.overflows"`
	DeferOverflows int64
	CardPasses     int64 `metric:"gc.card_passes"`

	CardsRegistered int64 `metric:"cards.registered"`
	CardsCleaned    int64 `metric:"cards.cleaned"`
	BarrierMarks    int64 `metric:"cards.barrier_marks"`

	AllocFences  int64 `metric:"gc.alloc_fences"`
	ForcedFences int64 `metric:"gc.forced_fences"`

	PoolCASRetries     int64 `metric:"pool.cas_retries"`
	FreeListRetries    int64 `metric:"live.freelist_retries"`
	PoolMaxInUse       int64 `metric:"pool.max_in_use"`
	PoolReturnFences   int64 `metric:"pool.return_fences"`
	TracerSwapFallback int64

	// Sharding-tier counters: the local packet caches (hits, steals from
	// sibling caches, batch spills to the global pool), the free-list
	// shards (batch pops served by a non-home shard) and the write-barrier
	// card buffers (non-empty flushes).
	PoolLocalHits     int64 `metric:"pool.local_hits"`
	PoolSteals        int64 `metric:"pool.steals"`
	PoolSpills        int64 `metric:"pool.spills"`
	PoolRefills       int64
	ArenaShardSteals  int64 `metric:"arena.shard_steals"`
	CardBufferFlushes int64 `metric:"card.buffer_flushes"`

	LiveAtEnd     int
	FloatingTotal int64 `metric:"live.floating_total"`
	FloatingMax   int64
	LostObjects   int64 `metric:"live.lost_objects"`
	// Violations holds the first few oracle findings verbatim (empty on a
	// correct run).
	Violations []string

	STWCount   int
	STWTotal   time.Duration `metric:"live.stw_ns_total"`
	STWMax     time.Duration `metric:"live.stw_ns_max"`
	MarkTotal  time.Duration `metric:"live.mark_ns_total"` // concurrent mark phases
	SweepTotal time.Duration
	// TracerActiveTotal is the full markingActive window — concurrent mark
	// plus STW final and the oracle — during which tracers may accrue idle
	// time. It is the denominator of the gcstats balance idle fraction.
	TracerActiveTotal time.Duration `metric:"live.tracer_active_ns_total"`

	// PressureKicks counts idle periods cut short because a mutator hit
	// allocation failure and signalled for an early collection.
	PressureKicks int64 `metric:"live.pressure_kicks"`

	// Degradation-ladder results. BackpressureWaits counts rung-1 blocked
	// allocations (BackpressureTimeouts of which expired without memory);
	// BackpressureTotal is the summed stall time. EmergencyCycles counts
	// rung-2 synchronous full STW collections. TimeOK/TimeBackpressure/
	// TimeEmergency is the run's wall time split by ladder state.
	BackpressureWaits    int64         `metric:"gc.backpressure_waits"`
	BackpressureTimeouts int64         `metric:"gc.backpressure_timeouts"`
	BackpressureTotal    time.Duration `metric:"gc.backpressure_ns"`
	EmergencyCycles      int64         `metric:"gc.emergency_cycles"`
	TimeOK               time.Duration `metric:"gc.deg_ok_ns"`
	TimeBackpressure     time.Duration `metric:"gc.deg_backpressure_ns"`
	TimeEmergency        time.Duration `metric:"gc.deg_emergency_ns"`
	// DirectDirties is the card table's count of degradation-path dirtying
	// (DirtyCardAtomic); it must reconcile with Overflows + DeferOverflows +
	// RescanRedirties, the engine-side counts of the same three callers.
	DirectDirties   int64 `metric:"cards.direct_dirties"`
	RescanRedirties int64 `metric:"live.rescan_redirties"`

	// Per-party tracing attribution (the counters behind trace.mutator_words
	// / trace.bg_words / trace.dedicated_words): TraceMutatorWords +
	// TraceBgWords + TraceDedicatedWords == Scans * RefsPerObject.
	TraceMutatorWords   int64 `metric:"trace.mutator_words"`
	TraceBgWords        int64 `metric:"trace.bg_words"`
	TraceDedicatedWords int64 `metric:"trace.dedicated_words"`

	// Pacing (Section 3) results; meaningful when PacingEnabled.
	// PacingPolicy names the policy in charge ("formula", "slo", "none").
	PacingEnabled   bool
	PacingPolicy    string
	Kickoffs        int64   // cycles started by free < (L+M)/K0
	PacedIncrements int64   // allocation increments that consulted the pacer
	KFirst, KLast   float64 // progress-formula rate at the first/last increment
	KMin, KMax      float64 // rate range over the run
	CorrectiveMax   float64 // largest (K-K0)*C catch-up addition applied

	// SLO-controller results; meaningful when PacingPolicy is "slo".
	// SLOWindows counts latency windows the policy observed (SLOOverTarget
	// of them above the target); SLOBgFactor is the background-throttle
	// factor in effect at the end of the run.
	SLOWindows    int64
	SLOOverTarget int64
	SLOBgFactor   float64

	// Wedged reports that the termination watchdog aborted the run;
	// WedgePhase and WedgeDiagnosis say where and what the state looked like.
	Wedged         bool
	WedgePhase     string
	WedgeDiagnosis string

	// Faults holds the per-site fault-injection counters (nil when the run
	// had no chaos plan).
	Faults []faultinject.PointStat

	// Workers holds each tracing party's full-run work-flow ledger (nil when
	// accounting is off — no registry, timeline or fault plan); TermLatencyNs
	// holds one termination-detection latency sample per cycle where some
	// tracer drained early.
	Workers       []WorkerAccount
	TermLatencyNs []int64
}

func (e *Engine) noteSTW(start, end int64) {
	d := time.Duration(end - start)
	e.report.STWCount++
	e.report.STWTotal += d
	if d > e.report.STWMax {
		e.report.STWMax = d
	}
	// Same gauge name as the simulator backend, so gcstats metrics computes
	// pause percentiles and MMU for live runs unchanged.
	e.cfg.Reg.Gauge("gc.pause_ns").Sample(vtime.Time(start), float64(end-start))
}

func (e *Engine) noteCycle(res OracleResult, freed int, at int64) {
	e.report.Cycles++
	e.report.LiveAtEnd = res.Live
	e.report.FloatingTotal += int64(res.Floating)
	if int64(res.Floating) > e.report.FloatingMax {
		e.report.FloatingMax = int64(res.Floating)
	}
	e.report.LostObjects += int64(res.Lost)
	e.sampleCycle(res, freed, at)
}

func (e *Engine) finishReport() {
	r := &e.report
	// Every engineStats atomic fills the Report field of the same name.
	sv, rv := reflect.ValueOf(&e.stats).Elem(), reflect.ValueOf(r).Elem()
	for i := 0; i < sv.NumField(); i++ {
		v := sv.Field(i).Addr().Interface().(*atomic.Int64).Load()
		rv.FieldByName(sv.Type().Field(i).Name).SetInt(v)
	}
	inState, _ := e.deg.snapshot(e.now())
	r.TimeOK = time.Duration(inState[DegOK])
	r.TimeBackpressure = time.Duration(inState[DegBackpressure])
	r.TimeEmergency = time.Duration(inState[DegEmergency])

	if e.pacer != nil {
		r.PacingEnabled = true
		r.PacingPolicy = pacing.Name(e.pacer.policy())
		sum := e.pacer.summary()
		r.PacedIncrements = sum.increments
		r.KFirst, r.KLast = sum.kFirst, sum.kLast
		r.KMin, r.KMax = sum.kMin, sum.kMax
		r.CorrectiveMax = sum.correctiveMax
		if st, ok := e.pacer.sloStats(); ok {
			r.SLOWindows = st.Windows
			r.SLOOverTarget = st.OverTarget
			r.SLOBgFactor = st.BgFactor
		}
	} else {
		r.PacingPolicy = "none"
	}

	cs := &e.arena.Cards.AtomicStats
	r.CardsRegistered = cs.CardsRegistered.Load()
	r.CardsCleaned = cs.CardsCleaned.Load()
	r.BarrierMarks = cs.BarrierMarks.Load()
	r.DirectDirties = cs.DirectDirties.Load()

	r.Faults = e.cfg.Faults.Snapshot()

	ps := &e.pool.Stats
	r.PoolCASRetries = ps.CASRetries.Load()
	r.PoolMaxInUse = ps.MaxInUse.Load()
	r.PoolReturnFences = ps.ReturnFences.Load()
	r.FreeListRetries = e.arena.FreeListRetries()

	ls := e.pool.LocalStatsSum()
	r.PoolLocalHits = ls.Hits
	r.PoolSteals = ls.Steals
	r.PoolSpills = ls.Spills
	r.PoolRefills = ls.Refills
	r.ArenaShardSteals = e.arena.ShardSteals()
	r.CardBufferFlushes = cs.BufferFlushes.Load()

	e.finishAccounting()
	e.flushTelemetry()
}

// String formats the report the way gcstress prints it.
func (r Report) String() string {
	oracle := "oracle: every cycle's live set ⊆ concurrent mark set"
	if r.LostObjects > 0 {
		oracle = fmt.Sprintf("ORACLE FAILED: %d live objects lost", r.LostObjects)
	}
	out := fmt.Sprintf(
		"cycles %d  mutator ops %d  alloc %d  freed %d  (alloc failed %d, pressure kicks %d)\n"+
			"marks %d  scans %d  rescans %d  deferred %d\n"+
			"trace words: mutator %d  bg %d  dedicated %d\n"+
			"overflows %d (defer %d, rescan redirty %d)  card passes %d  cards reg/cleaned %d/%d  barrier marks %d\n"+
			"fences: alloc %d  forced %d  pool-return %d\n"+
			"contention: pool CAS retries %d  free-list retries %d  pool max in use %d\n"+
			"floating garbage: total %d  max/cycle %d  live at end %d\n"+
			"pauses: %d  total %v  max %v  (concurrent: mark %v  sweep %v)\n%s",
		r.Cycles, r.MutatorOps, r.ObjectsAllocated, r.ObjectsFreed, r.AllocFailed, r.PressureKicks,
		r.Marks, r.Scans, r.Rescans, r.Deferred,
		r.TraceMutatorWords, r.TraceBgWords, r.TraceDedicatedWords,
		r.Overflows, r.DeferOverflows, r.RescanRedirties, r.CardPasses, r.CardsRegistered, r.CardsCleaned, r.BarrierMarks,
		r.AllocFences, r.ForcedFences, r.PoolReturnFences,
		r.PoolCASRetries, r.FreeListRetries, r.PoolMaxInUse,
		r.FloatingTotal, r.FloatingMax, r.LiveAtEnd,
		r.STWCount, r.STWTotal.Round(time.Microsecond), r.STWMax.Round(time.Microsecond),
		r.MarkTotal.Round(time.Microsecond), r.SweepTotal.Round(time.Microsecond),
		oracle)
	if r.PoolLocalHits+r.PoolSteals+r.PoolSpills+r.ArenaShardSteals+r.CardBufferFlushes > 0 {
		out += fmt.Sprintf("\nsharding: local hits %d  steals %d  spills %d (refills %d)  shard steals %d  card flushes %d",
			r.PoolLocalHits, r.PoolSteals, r.PoolSpills, r.PoolRefills, r.ArenaShardSteals, r.CardBufferFlushes)
	}
	if r.PacingEnabled {
		out += fmt.Sprintf("\npacing[%s]: kickoffs %d  increments %d  K first %.2f  last %.2f  range [%.2f, %.2f]  corrective max %.2f",
			r.PacingPolicy, r.Kickoffs, r.PacedIncrements, r.KFirst, r.KLast, r.KMin, r.KMax, r.CorrectiveMax)
	}
	if r.PacingPolicy == "slo" {
		out += fmt.Sprintf("\nslo: windows %d  over target %d  bg factor %.2f",
			r.SLOWindows, r.SLOOverTarget, r.SLOBgFactor)
	}
	if r.BackpressureWaits+r.EmergencyCycles > 0 {
		out += fmt.Sprintf("\nladder: backpressure waits %d (timeouts %d, stalled %v)  emergency cycles %d  time bp/emerg %v/%v",
			r.BackpressureWaits, r.BackpressureTimeouts, r.BackpressureTotal.Round(time.Microsecond),
			r.EmergencyCycles, r.TimeBackpressure.Round(time.Microsecond), r.TimeEmergency.Round(time.Microsecond))
	}
	if bal := r.balanceSummary(); bal != "" {
		out += "\n" + bal
	}
	if len(r.Faults) > 0 {
		out += "\nfaults:"
		for _, p := range r.Faults {
			out += fmt.Sprintf("  %s %d/%d", p.Name, p.Fires, p.Hits)
			if p.Jitters > 0 {
				out += fmt.Sprintf(" (jitter %d)", p.Jitters)
			}
		}
	}
	if r.Wedged {
		out += "\n" + r.WedgeDiagnosis
	}
	return out
}
