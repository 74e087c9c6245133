package live

import (
	"fmt"
	"strings"
	"time"

	"mcgc/internal/workpack"
)

// wedgeWatch is the driver's termination-detection watchdog. The collector's
// termination test (Empty count == total packets) assumes every thread keeps
// making progress; a tracer that stalls forever while holding a packet makes
// TracingDone false for the rest of time and the driver would spin-wait
// silently. The watch samples an aggregate progress stamp and declares the
// cycle wedged when the stamp holds still for the configured deadline —
// progress of any kind (a mark, a scan, a pool op) resets the clock.
type wedgeWatch struct {
	e       *Engine
	last    int64
	since   time.Time
	timeout time.Duration
}

func (e *Engine) newWedgeWatch() *wedgeWatch {
	return &wedgeWatch{
		e:       e,
		last:    e.traceProgress(),
		since:   time.Now(),
		timeout: e.cfg.WedgeTimeout,
	}
}

// stalled samples the progress stamp and reports whether it has been static
// for the full wedge deadline. Only the driver calls it, between waits.
func (w *wedgeWatch) stalled() bool {
	if p := w.e.traceProgress(); p != w.last {
		w.last = p
		w.since = time.Now()
		return false
	}
	return time.Since(w.since) >= w.timeout
}

// traceProgress folds every tracing-side counter into one stamp. Any tracer
// or driver activity moves it: claims, scans, rescans, deferrals and drains,
// the overflow degradations, and raw pool traffic (a tracer shuffling
// packets without scanning is still alive). The fence epoch is deliberately
// excluded — mutators answering handshakes must not mask a dead trace.
func (e *Engine) traceProgress() int64 {
	s := &e.stats
	ps := &e.pool.Stats
	ls := e.pool.LocalStatsSum()
	stamp := s.Marks.Load() + s.Scans.Load() + s.Rescans.Load() +
		s.Deferred.Load() + s.DeferredDrains.Load() +
		s.Overflows.Load() + s.DeferOverflows.Load() +
		ps.Gets.Load() + ps.Puts.Load() +
		// Local-tier traffic is progress too: a tracer living entirely off
		// its cache (hits) or off siblings (steals) never touches the
		// global Gets/Puts counters.
		ls.Hits + ls.Steals + ls.Spills + ls.Refills
	// A hoarding tracer withholds puts, so its cumulative hoard count stands
	// in for the pool traffic it suppressed.
	for _, a := range e.accounts {
		stamp += a.led.Hoarded.Load()
	}
	return stamp
}

// abortWedged is the fail-loudly path: capture a diagnosis while the wedged
// state is still in place, then unwind — resume the world if the driver holds
// it stopped, shut every worker down, and release the driver's own packets so
// the pool accounting closes. The run's report carries the diagnosis; callers
// (gcstress) print it and exit nonzero instead of hanging CI.
func (e *Engine) abortWedged(drv *workpack.Tracer, phase string) {
	e.report.Wedged = true
	e.report.WedgePhase = phase
	e.report.WedgeDiagnosis = e.wedgeDiagnosis(phase)

	e.shutdown.Store(true)
	if e.worldStopped {
		e.resumeWorld()
	}
	e.wg.Wait()
	// External mutators see ShuttingDown on their next poll and retire;
	// the report must not be finalized while their caches are outstanding.
	e.extWG.Wait()
	e.markingActive.Store(false)
	drv.Release()
}

// wedgeDiagnosis renders the collector's state for a wedged cycle: where
// every packet is, what the trace counters say, how far the fence handshake
// got per mutator, and what the card table and fault plan hold. Reads race
// with still-running goroutines by design — a diagnosis beats a deadlock.
func (e *Engine) wedgeDiagnosis(phase string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "WEDGED in %s: no tracing progress for %v\n", phase, e.cfg.WedgeTimeout)

	occ := e.pool.Occupancy()
	inPools := 0
	for _, n := range occ {
		inPools += n
	}
	fmt.Fprintf(&b, "  pool: total %d packets;", e.pool.TotalPackets())
	for s := workpack.SubPool(0); s < workpack.NumSubPools; s++ {
		fmt.Fprintf(&b, " %s %d", s, occ[s])
	}
	cachedEmpty, cachedReady := e.pool.LocalCached()
	fmt.Fprintf(&b, "; locally cached %d empty + %d ready; checked out %d; entries in flight %d\n",
		cachedEmpty, cachedReady,
		int64(e.pool.TotalPackets())-int64(inPools)-cachedEmpty-cachedReady,
		e.pool.EntriesInUse())
	ps := &e.pool.Stats
	ls := e.pool.LocalStatsSum()
	fmt.Fprintf(&b, "  pool ops: gets %d  puts %d  CAS retries %d  local hits %d  steals %d  spills %d\n",
		ps.Gets.Load(), ps.Puts.Load(), ps.CASRetries.Load(),
		ls.Hits, ls.Steals, ls.Spills)

	s := &e.stats
	fmt.Fprintf(&b, "  trace: marks %d  scans %d  rescans %d  deferred %d (drains %d)  overflows %d (defer %d)\n",
		s.Marks.Load(), s.Scans.Load(), s.Rescans.Load(),
		s.Deferred.Load(), s.DeferredDrains.Load(),
		s.Overflows.Load(), s.DeferOverflows.Load())

	fmt.Fprintf(&b, "  fence: epoch %d; acks", e.fenceEpoch.Load())
	for _, m := range e.muts {
		state := ""
		if m.exited.Load() {
			state = " (exited)"
		}
		fmt.Fprintf(&b, " m%d=%d%s", m.id, m.ackEpoch.Load(), state)
	}
	b.WriteByte('\n')

	// Per-worker ledgers pinpoint an asymmetric tracer — one hoarding (held
	// packets the sub-pools cannot see) or starving (all idle, no words)
	// while the aggregates above look plausible.
	for _, a := range e.accounts {
		w := a.led.Snap()
		fmt.Fprintf(&b, "  workers: %s acq g/l/s %d/%d/%d  produced %d  words %d  idle %.1fms  steals %d/%d",
			a.key, w.AcqGlobal, w.AcqLocal, w.AcqSteal, w.Produced, w.Words,
			float64(w.IdleNs)/1e6, w.StealHits, w.StealAttempts)
		if w.Hoarded > 0 || w.HoardHeld > 0 {
			fmt.Fprintf(&b, "  HOARDING %d held (%d lifetime)", w.HoardHeld, w.Hoarded)
		}
		b.WriteByte('\n')
	}

	cs := &e.arena.Cards.AtomicStats
	fmt.Fprintf(&b, "  cards: dirty now %d; registered %d  cleaned %d  direct dirties %d\n",
		e.arena.Cards.CountDirtyAtomic(), cs.CardsRegistered.Load(),
		cs.CardsCleaned.Load(), cs.DirectDirties.Load())
	fmt.Fprintf(&b, "  heap: free list %d of %d objects (%d shards, %d shard steals)\n",
		e.arena.FreeLen(), e.arena.NumObjects(),
		e.arena.NumFreeShards(), e.arena.ShardSteals())
	fmt.Fprintf(&b, "  ladder: state %s  waiters %d  bp waits %d (timeouts %d)  emergency cycles %d\n",
		e.DegradationState(), e.deg.activeWaiters(),
		e.stats.BackpressureWaits.Load(), e.stats.BackpressureTimeouts.Load(),
		e.stats.EmergencyCycles.Load())

	if snap := e.cfg.Faults.Snapshot(); len(snap) > 0 {
		fmt.Fprintf(&b, "  faults (spec %q seed %d):", e.cfg.Faults.String(), e.cfg.Faults.Seed())
		for _, p := range snap {
			fmt.Fprintf(&b, " %s hits=%d fires=%d", p.Name, p.Hits, p.Fires)
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}
