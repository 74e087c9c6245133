package live

import (
	"fmt"
	"math/bits"
	"strings"

	"mcgc/internal/bitvec"
	"mcgc/internal/heapsim"
)

// oracleScratch is the sequential marker's private state, reused across
// cycles. It is touched only by the driver, with the world stopped.
type oracleScratch struct {
	marks *bitvec.Vector
	stack []heapsim.Addr
}

func newOracleScratch(objects int) *oracleScratch {
	return &oracleScratch{marks: bitvec.New(objects + 1)}
}

// OracleResult is one cycle's ground-truth comparison.
type OracleResult struct {
	// Live is the number of objects reachable from the roots at the
	// closure point (the sequential mark).
	Live int
	// Floating is how many concurrently marked objects are unreachable —
	// garbage the cycle retains, exactly the paper's floating garbage.
	Floating int
	// Lost counts reachable objects the concurrent mark missed. Any
	// nonzero value is a collector bug: the object would have been swept.
	Lost int
}

// runOracle validates the concurrent mark against a sequential one. It runs
// in the STW final phase, after closeMark: mutators are parked (so the root
// arrays are the entire reachable frontier — mutators hold no references
// across safepoints) and tracing is quiescent. The concurrent mark set must
// be a superset of the sequential one; the difference is floating garbage.
// Violations are appended to the report (and counted in LostObjects).
func (e *Engine) runOracle() OracleResult {
	sc := e.oracleMarks
	sc.marks.ClearAll()
	sc.stack = sc.stack[:0]
	for _, m := range e.muts {
		for i := range m.roots {
			if c := heapsim.Addr(m.roots[i].Load()); c != heapsim.Nil && !sc.marks.Test(int(c)) {
				sc.marks.Set(int(c))
				sc.stack = append(sc.stack, c)
			}
		}
	}
	// External root blocks (a server store's live set) are ground truth too:
	// an object reachable only through a RootSet that the concurrent mark
	// missed is exactly the lost-object bug the oracle exists to catch.
	for _, rs := range e.extraRoots {
		for i := range rs.slots {
			if c := heapsim.Addr(rs.slots[i].Load()); c != heapsim.Nil && !sc.marks.Test(int(c)) {
				sc.marks.Set(int(c))
				sc.stack = append(sc.stack, c)
			}
		}
	}
	live := 0
	for len(sc.stack) > 0 {
		a := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		live++
		for j := 0; j < e.arena.refsPer; j++ {
			if c := e.arena.LoadRef(a, j); c != heapsim.Nil && !sc.marks.Test(int(c)) {
				sc.marks.Set(int(c))
				sc.stack = append(sc.stack, c)
			}
		}
	}

	// Compare a word at a time: r is reachable, m concurrently marked, a
	// allocated. Floating garbage is a popcount; only the bits that break an
	// invariant (reachable but unmarked, or lacking an allocation bit while
	// reachable or marked) take the per-object path.
	res := OracleResult{Live: live}
	hadViolations := len(e.report.Violations)
	for w := 0; w < sc.marks.Words(); w++ {
		r, m, a := sc.marks.LoadWord(w), e.arena.Mark.LoadWord(w), e.arena.Alloc.LoadWord(w)
		if w == 0 {
			r, m = r&^1, m&^1 // bit 0 is nil
		}
		res.Floating += bits.OnesCount64(m &^ r)
		for bad := r&^m | r&m&^a | m&^r&^a; bad != 0; bad &= bad - 1 {
			bit := bad & -bad
			obj := w<<6 + bits.TrailingZeros64(bad)
			switch {
			case r&^m&bit != 0:
				res.Lost++
				e.violation("cycle %d: live object %d not marked by concurrent trace (%s)",
					e.report.Cycles, obj, e.describeObject(heapsim.Addr(obj)))
			case r&bit != 0:
				e.violation("cycle %d: live object %d has no allocation bit (%s)",
					e.report.Cycles, obj, e.describeObject(heapsim.Addr(obj)))
			default:
				e.violation("cycle %d: marked object %d has no allocation bit (%s)",
					e.report.Cycles, obj, e.describeObject(heapsim.Addr(obj)))
			}
		}
	}
	if len(e.report.Violations) > hadViolations {
		// One context line per failing cycle: the collector-wide state the
		// per-object lines are read against.
		e.violation("cycle %d context: %s", e.report.Cycles, e.oracleContext())
	}
	return res
}

// describeObject renders the collector's view of one address for an oracle
// violation: its mark and allocation bits, its card and that card's dirty
// state, and its outgoing references. Bounded output — violations are capped,
// and each line is one object.
func (e *Engine) describeObject(a heapsim.Addr) string {
	card := e.arena.Cards.CardOf(a)
	var b strings.Builder
	fmt.Fprintf(&b, "mark=%t alloc=%t card=%d dirty=%t refs=[",
		e.arena.Mark.Test(int(a)), e.arena.Alloc.Test(int(a)),
		card, e.arena.Cards.IsDirty(card))
	for j := 0; j < e.arena.refsPer; j++ {
		if j > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", e.arena.LoadRef(a, j))
	}
	b.WriteByte(']')
	return b.String()
}

// oracleContext summarizes the collector state at a failing oracle: packet
// pool occupancy, fence epoch, and card-table counters. It runs in the STW
// final phase, so the counts are exact.
func (e *Engine) oracleContext() string {
	occ := e.pool.Occupancy()
	cs := &e.arena.Cards.AtomicStats
	return fmt.Sprintf(
		"pool occupancy %v (total %d, entries in flight %d), fence epoch %d, "+
			"cards dirty %d registered %d cleaned %d, marks %d scans %d deferred %d overflows %d",
		occ, e.pool.TotalPackets(), e.pool.EntriesInUse(), e.fenceEpoch.Load(),
		e.arena.Cards.CountDirtyAtomic(), cs.CardsRegistered.Load(), cs.CardsCleaned.Load(),
		e.stats.Marks.Load(), e.stats.Scans.Load(), e.stats.Deferred.Load(),
		e.stats.Overflows.Load())
}

// collectGarbage lists every allocated, unmarked object and retracts its
// allocation bit, still under the stopped world. It works a word at a time:
// Alloc &^ Mark is 64 objects' garbage verdict in one op, and one atomic
// and-not retracts them all. The returned objects are ascending and
// unreachable by construction, so the caller frees them concurrently. The
// slice is the engine's reused garbage buffer: valid until the next call.
func (e *Engine) collectGarbage() []heapsim.Addr {
	toFree := e.garbage[:0]
	alloc, mark := e.arena.Alloc, e.arena.Mark
	for w := 0; w < alloc.Words(); w++ {
		g := alloc.LoadWord(w) &^ mark.LoadWord(w)
		if w == 0 {
			g &^= 1 // bit 0 is nil
		}
		if g == 0 {
			continue
		}
		alloc.AndNotWord(w, g)
		for ; g != 0; g &= g - 1 {
			toFree = append(toFree, heapsim.Addr(w<<6+bits.TrailingZeros64(g)))
		}
	}
	e.garbage = toFree
	return toFree
}

func (e *Engine) violation(format string, args ...any) {
	if len(e.report.Violations) < 20 {
		e.report.Violations = append(e.report.Violations, fmt.Sprintf(format, args...))
	}
}
