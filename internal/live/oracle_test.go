package live

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mcgc/internal/bitvec"
	"mcgc/internal/heapsim"
)

// oracleObjects sizes the hand-wired heaps below: 131 bits span two full
// words and a partial third, so address 1 (the first after nil), the 63/64
// word boundary and the last partial word (128..130) are all reachable
// cases.
const oracleObjects = 130

// oracleAddrs are the positions every negative case is placed at.
var oracleAddrs = []heapsim.Addr{1, 63, 64, oracleObjects}

// oracleHeap builds an engine that never runs and wires its heap directly:
// every address in chain is allocated and marked, root slot 0 points at
// chain[0], and each object's slot 0 points at the next. The caller then
// breaks exactly one invariant.
func oracleHeap(t *testing.T, chain ...heapsim.Addr) *Engine {
	t.Helper()
	e := NewEngine(Config{Objects: oracleObjects, Mutators: 1, Tracers: 1})
	rs := e.NewRootSet(1)
	for i, a := range chain {
		e.arena.Alloc.Set(int(a))
		e.arena.Mark.Set(int(a))
		if i+1 < len(chain) {
			e.arena.StoreRef(a, 0, chain[i+1])
		}
	}
	if len(chain) > 0 {
		rs.Set(0, chain[0])
	}
	return e
}

// wantViolation asserts the oracle reported exactly one per-object line,
// with the given text, followed by the per-cycle context line.
func wantViolation(t *testing.T, e *Engine, prefix string) {
	t.Helper()
	v := e.report.Violations
	if len(v) != 2 || !strings.HasPrefix(v[0], prefix) || !strings.HasPrefix(v[1], "cycle 0 context: ") {
		t.Fatalf("violations = %q, want one starting %q plus the context line", v, prefix)
	}
}

func TestOracleCatchesLostObject(t *testing.T) {
	for _, lost := range oracleAddrs {
		t.Run(fmt.Sprint(lost), func(t *testing.T) {
			e := oracleHeap(t, oracleAddrs...)
			e.arena.Mark.Clear(int(lost))
			res := e.runOracle()
			if res.Lost != 1 || res.Live != len(oracleAddrs) || res.Floating != 0 {
				t.Fatalf("result %+v, want Lost 1, Live %d, Floating 0", res, len(oracleAddrs))
			}
			wantViolation(t, e, fmt.Sprintf("cycle 0: live object %d not marked by concurrent trace (", lost))
		})
	}
}

func TestOracleCatchesLiveObjectWithoutAllocBit(t *testing.T) {
	for _, bad := range oracleAddrs {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			e := oracleHeap(t, oracleAddrs...)
			e.arena.Alloc.Clear(int(bad))
			res := e.runOracle()
			if res.Lost != 0 || res.Floating != 0 {
				t.Fatalf("result %+v, want Lost 0, Floating 0", res)
			}
			wantViolation(t, e, fmt.Sprintf("cycle 0: live object %d has no allocation bit (", bad))
		})
	}
}

func TestOracleCatchesMarkedGarbageWithoutAllocBit(t *testing.T) {
	for _, bad := range oracleAddrs {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			var live []heapsim.Addr
			for _, a := range oracleAddrs {
				if a != bad {
					live = append(live, a)
				}
			}
			e := oracleHeap(t, live...)
			e.arena.Mark.Set(int(bad)) // marked, unreachable, never allocated
			res := e.runOracle()
			if res.Lost != 0 || res.Floating != 1 || res.Live != len(live) {
				t.Fatalf("result %+v, want Lost 0, Floating 1, Live %d", res, len(live))
			}
			wantViolation(t, e, fmt.Sprintf("cycle 0: marked object %d has no allocation bit (", bad))
		})
	}
}

// Floating garbage is exactly the marked-but-unreachable count, and a clean
// heap reports no violation at all.
func TestOracleFloatingCount(t *testing.T) {
	e := oracleHeap(t, 1, 64)
	floating := []heapsim.Addr{63, 65, 127, 128, oracleObjects}
	for _, a := range floating {
		e.arena.Alloc.Set(int(a))
		e.arena.Mark.Set(int(a))
	}
	e.arena.Alloc.Set(2) // allocated, unmarked, unreachable: plain garbage
	res := e.runOracle()
	if res != (OracleResult{Live: 2, Floating: len(floating)}) {
		t.Fatalf("result %+v, want Live 2, Floating %d, Lost 0", res, len(floating))
	}
	if len(e.report.Violations) != 0 {
		t.Fatalf("clean heap reported violations %q", e.report.Violations)
	}
}

// collectGarbagePerBit is the reference identification: one Test per object.
func collectGarbagePerBit(e *Engine) []heapsim.Addr {
	var garbage []heapsim.Addr
	for a := 1; a <= e.arena.numObjects; a++ {
		if e.arena.Alloc.Test(a) && !e.arena.Mark.Test(a) {
			garbage = append(garbage, heapsim.Addr(a))
		}
	}
	return garbage
}

// randomBits sets each object's allocation bit with probability pAlloc and
// its mark bit with probability pMark (independently, so some marked
// objects lack allocation bits — identification must ignore them).
func randomBits(e *Engine, rng *rand.Rand, pAlloc, pMark float64) {
	e.arena.Alloc.ClearAll()
	e.arena.Mark.ClearAll()
	for a := 1; a <= e.arena.numObjects; a++ {
		if rng.Float64() < pAlloc {
			e.arena.Alloc.Set(a)
		}
		if rng.Float64() < pMark {
			e.arena.Mark.Set(a)
		}
	}
}

// The word-at-a-time identification returns exactly the per-bit reference
// set, ascending, and retracts exactly those allocation bits.
func TestCollectGarbageMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, objects := range []int{1, 63, 64, 127, 1001} {
		e := NewEngine(Config{Objects: objects, Mutators: 1, Tracers: 1})
		for _, p := range [][2]float64{{0.5, 0.5}, {0.9, 0.2}, {1, 0}, {0, 1}, {0.7, 0.95}} {
			randomBits(e, rng, p[0], p[1])
			want := collectGarbagePerBit(e)
			allocBefore := e.arena.Alloc.Count()
			got := e.collectGarbage()
			if !slices.Equal(got, want) {
				t.Fatalf("objects %d alloc/mark %v: word-wise %v, per-bit %v", objects, p, got, want)
			}
			if left := collectGarbagePerBit(e); len(left) != 0 {
				t.Fatalf("objects %d alloc/mark %v: allocation bits not retracted: %v", objects, p, left)
			}
			if n := e.arena.Alloc.Count(); n != allocBefore-len(want) {
				t.Fatalf("objects %d alloc/mark %v: %d allocation bits left, want %d",
					objects, p, n, allocBefore-len(want))
			}
		}
	}
}

// benchObjects is the default arena size (Config.Objects).
const benchObjects = 1 << 15

// BenchmarkCollectGarbage times garbage identification at the default arena
// size with 70% of objects allocated and 60% of those marked. Each iteration
// restores the allocation bits identification retracted (timer stopped).
func BenchmarkCollectGarbage(b *testing.B) {
	e := NewEngine(Config{Objects: benchObjects, Mutators: 1, Tracers: 1})
	rng := rand.New(rand.NewSource(1))
	for a := 1; a <= benchObjects; a++ {
		if rng.Float64() < 0.7 {
			e.arena.Alloc.Set(a)
			if rng.Float64() < 0.6 {
				e.arena.Mark.Set(a)
			}
		}
	}
	saved := bitvec.New(benchObjects + 1)
	saved.CopyFrom(e.arena.Alloc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.arena.Alloc.CopyFrom(saved)
		b.StartTimer()
		if len(e.collectGarbage()) == 0 {
			b.Fatal("no garbage identified")
		}
	}
}

// BenchmarkRunOracle times one oracle pass — the sequential mark plus the
// comparison — at the default arena size: a random graph (4 refs, half nil)
// reached from 256 roots, with every reachable object marked and allocated
// and 10% of the rest marked as floating garbage.
func BenchmarkRunOracle(b *testing.B) {
	e := NewEngine(Config{Objects: benchObjects, Mutators: 1, Tracers: 1})
	rng := rand.New(rand.NewSource(1))
	for a := 1; a <= benchObjects; a++ {
		for j := 0; j < e.arena.refsPer; j++ {
			if rng.Intn(2) == 0 {
				e.arena.StoreRef(heapsim.Addr(a), j, heapsim.Addr(1+rng.Intn(benchObjects)))
			}
		}
	}
	rs := e.NewRootSet(256)
	for i := 0; i < rs.Len(); i++ {
		rs.Set(i, heapsim.Addr(1+rng.Intn(benchObjects)))
	}
	// The first pass runs against an empty mark set only to produce the
	// sequential mark, which becomes the concurrent one.
	res := e.runOracle()
	e.arena.Mark.CopyFrom(e.oracleMarks.marks)
	e.report.Violations = nil
	for a := 1; a <= benchObjects; a++ {
		if !e.arena.Mark.Test(a) && rng.Float64() < 0.1 {
			e.arena.Mark.Set(a)
		}
		if e.arena.Mark.Test(a) {
			e.arena.Alloc.Set(a)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := e.runOracle(); r.Lost != 0 || r.Floating == 0 {
			b.Fatalf("oracle result %+v", r)
		}
	}
	if len(e.report.Violations) != 0 {
		b.Fatalf("violations %q", e.report.Violations)
	}
	b.ReportMetric(float64(res.Live), "live")
}
