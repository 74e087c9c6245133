package live

import (
	"fmt"
	"sync/atomic"

	"mcgc/internal/heapsim"
)

// External mutators: the hooks that let a real workload — a server's request
// handlers rather than the engine's synthetic churn — allocate from the live
// arena, mutate it through the write barrier, and hold collector-visible
// roots. An external mutator is a first-class citizen of every protocol the
// synthetic ones run: it pays the Section 3 allocation tax at cache refills,
// publishes allocation bits in Section 5.2 batches, answers Section 5.3
// fence handshakes, and parks at safepoints. The engine provides the state;
// the caller provides the goroutine.

// Mut is the caller-facing handle of one external mutator. All methods must
// be invoked from a single goroutine (the one driving this mutator); the
// handle is not shareable. The goroutine must call Poll often — between
// requests, inside waits — because a safepoint blocks the whole collector
// until every mutator parks, and must never Poll while holding a lock that a
// running mutator could need (Poll may block for a full STW pause).
type Mut struct {
	m *mutator
}

// ExtMutator returns the handle for external mutator slot i of
// [0, Config.ExtMutators).
func (e *Engine) ExtMutator(i int) *Mut {
	if i < 0 || i >= e.cfg.ExtMutators {
		panic(fmt.Sprintf("live: external mutator %d of %d", i, e.cfg.ExtMutators))
	}
	return &Mut{m: e.muts[e.cfg.Mutators+i]}
}

// ShuttingDown reports whether Run has begun tearing the workload down.
// External mutators must Retire soon after observing true.
func (e *Engine) ShuttingDown() bool { return e.shutdown.Load() }

// ID returns this mutator's engine-wide id (external ids follow the
// synthetic ones).
func (mt *Mut) ID() int { return mt.m.id }

// NumRoots returns how many root slots this mutator owns
// (Config.RootsPerMutator).
func (mt *Mut) NumRoots() int { return len(mt.m.roots) }

// live asserts the handle has not retired and returns its mutator. Every
// protocol-touching method goes through it: a retired mutator has left the
// safepoint population and returned its allocation cache, so any further op
// would corrupt the engine's accounting in ways that only surface cycles
// later. A deterministic panic at the call site beats that.
func (mt *Mut) live(op string) *mutator {
	if mt.m.exited.Load() {
		panic(fmt.Sprintf("live: external mutator %d: %s after Retire", mt.m.id, op))
	}
	return mt.m
}

// Poll services the collector's protocols: it parks for a pending safepoint
// and acknowledges a pending fence handshake. It is the external mutator's
// op boundary — cheap when nothing is pending (two atomic loads).
func (mt *Mut) Poll() {
	m := mt.live("Poll")
	m.maybePark()
	m.maybeAck()
}

// Alloc takes one object from this mutator's allocation cache, refilling
// from the shared free list (and paying the allocation tax) as needed. The
// object is returned unreferenced: the caller must make it reachable — store
// it into a root slot or a reachable object — before its next Poll, or the
// collector may treat it as garbage once its batch publishes. ok is false on
// heap exhaustion; the failure signals memory pressure so the driver starts
// a collection, and the caller should treat the request as failed rather
// than spin.
func (mt *Mut) Alloc() (heapsim.Addr, bool) {
	m := mt.live("Alloc")
	m.ops++
	obj := m.takeFromCache()
	if obj == heapsim.Nil {
		m.allocFailed()
		return heapsim.Nil, false
	}
	m.enqueue(obj)
	return obj, true
}

// Store writes ref slot j of obj through the write barrier.
func (mt *Mut) Store(obj heapsim.Addr, j int, v heapsim.Addr) {
	m := mt.live("Store")
	m.ops++
	m.store(obj, j, v)
}

// Load reads ref slot j of obj.
func (mt *Mut) Load(obj heapsim.Addr, j int) heapsim.Addr {
	m := mt.live("Load")
	m.ops++
	return m.e.arena.LoadRef(obj, j)
}

// SetRoot publishes v in root slot i: the collector scans it at STW init,
// rescans it at the final phase, and the oracle walks it as ground truth.
// Store Nil to drop the root (how retired sessions become garbage).
func (mt *Mut) SetRoot(i int, v heapsim.Addr) { mt.live("SetRoot").roots[i].Store(uint32(v)) }

// Root reads root slot i back.
func (mt *Mut) Root(i int) heapsim.Addr { return heapsim.Addr(mt.m.roots[i].Load()) }

// Retire permanently removes this mutator from the safepoint population,
// publishing its batch, flushing its cards and returning its allocation
// cache. Call exactly once, after ShuttingDown reports true (or before Run);
// retiring mid-run would race the mutator's unparked state against an
// in-progress pause. The mutator's roots keep their final values — drop them
// first if the retiring session's state should become garbage.
func (mt *Mut) Retire() {
	// The claim is a CAS so a second Retire panics deterministically even
	// when two goroutines misuse the handle concurrently — the loser must
	// never run exit() again or decrement extWG twice.
	if !mt.m.retired.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("live: external mutator %d retired twice", mt.m.id))
	}
	mt.m.exit()
	mt.m.e.extWG.Done()
}

// RootSet is a block of collector root slots owned by external code rather
// than any one mutator — a server store's per-shard bucket heads, pinned
// for as long as the structure lives. Slots are atomics: any goroutine may
// Set while the driver scans. Register before Run via Engine.NewRootSet.
type RootSet struct {
	slots []atomic.Uint32
}

// NewRootSet registers n extra root slots with the collector. Must be called
// before Run — the driver reads extraRoots unlocked during root scans.
func (e *Engine) NewRootSet(n int) *RootSet {
	if e.running.Load() {
		panic("live: NewRootSet after Run started")
	}
	if n < 1 {
		panic(fmt.Sprintf("live: NewRootSet(%d)", n))
	}
	rs := &RootSet{slots: make([]atomic.Uint32, n)}
	e.extraRoots = append(e.extraRoots, rs)
	return rs
}

// Len returns the slot count.
func (r *RootSet) Len() int { return len(r.slots) }

// Get reads slot i.
func (r *RootSet) Get(i int) heapsim.Addr { return heapsim.Addr(r.slots[i].Load()) }

// Set publishes v in slot i (Nil drops the root). No write barrier is
// needed: root slots are not heap objects, and the final STW phase rescans
// every root before the cycle closes.
func (r *RootSet) Set(i int, v heapsim.Addr) { r.slots[i].Store(uint32(v)) }
