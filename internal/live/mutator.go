package live

import (
	"math/rand"
	"runtime"
	"sync/atomic"

	"mcgc/internal/cardtable"
	"mcgc/internal/heapsim"
	"mcgc/internal/workpack"
)

// opKind enumerates the mutator operations the workload shapes weight.
type opKind int

const (
	opAlloc  opKind = iota // allocate and install a new object
	opLink                 // store a reference into a reachable object
	opUnlink               // nil out a slot of a reachable object
	opDrop                 // drop a root (creates garbage)
	opWalk                 // read-only pointer chase
	numOps
)

// shapeWeights returns the op mix for a workload shape. "churn" is
// allocation-heavy (stresses publication, sweep and free-list CAS),
// "pointer" is mutation-heavy (stresses the barrier and card cleaning),
// "mixed" is in between.
func shapeWeights(shape string) [numOps]int {
	switch shape {
	case "churn":
		return [numOps]int{55, 15, 10, 15, 5}
	case "pointer":
		return [numOps]int{10, 40, 25, 5, 20}
	default: // mixed
		return [numOps]int{30, 25, 15, 10, 20}
	}
}

// mutator is one application goroutine. All of its persistent references
// live in roots — nothing is cached across ops — so a parked mutator's
// reachable set is exactly what the root arrays say, which is what makes
// the STW oracle's sequential mark an exact ground truth.
type mutator struct {
	e   *Engine
	id  int
	rng *rand.Rand

	// roots is this mutator's thread stack: atomic slots the driver scans
	// at STW init and rescans in the final phase.
	roots []atomic.Uint32

	// cache holds objects popped from the free list but not yet installed;
	// pending holds installed objects whose allocation bits are not yet
	// published (the Section 5.2 batch).
	cache   []heapsim.Addr
	pending []heapsim.Addr

	// home is this mutator's free-list shard: refills batch-pop from it and
	// steal from the other shards only on exhaustion.
	home int
	// cardBuf batches the write barrier's card stores; nil dirties the
	// shared table directly. It is flushed before every park and fence ack.
	cardBuf *cardtable.DirtyBuffer
	// local is the packet cache behind this mutator's allocation-tax
	// tracing (nil without pacing or with the local tier disabled).
	local *workpack.LocalPool

	lastEpoch int64
	ackEpoch  atomic.Int64
	exited    atomic.Bool
	// retired is the external handle's Retire claim (CAS-taken exactly
	// once); exited flips only after exit() has finished unwinding.
	retired atomic.Bool

	cum [numOps]int
	ops int64
}

func newMutator(e *Engine, id int) *mutator {
	m := &mutator{
		e:     e,
		id:    id,
		rng:   e.newRNG(100 + id),
		roots: make([]atomic.Uint32, e.cfg.RootsPerMutator),
		home:  id,
	}
	if e.cardBufCap > 0 {
		m.cardBuf = e.arena.Cards.NewDirtyBuffer(e.cardBufCap)
	}
	if e.pacer != nil && e.localCap > 0 {
		m.local = e.pool.NewLocal(e.localCap)
	}
	w := shapeWeights(e.cfg.Shape)
	sum := 0
	for i, v := range w {
		sum += v
		m.cum[i] = sum
	}
	return m
}

func (m *mutator) run() {
	defer m.e.wg.Done()
	for !m.e.shutdown.Load() {
		m.maybePark()
		m.maybeAck()
		m.step()
		if m.ops++; m.ops&63 == 0 {
			// Ops are sub-microsecond; on few-core hosts an unyielding
			// mutator would starve the driver and tracers for a whole
			// preemption slice.
			runtime.Gosched()
		}
	}
	m.exit()
}

// exit is the common retirement path of engine-driven and external mutators:
// publish what is installed, flush the buffered cards, return the uninstalled
// cache in one batch, spill the packet cache and leave the safepoint
// population. It must run outside any STW window the mutator has not parked
// for — callers reach it only after observing shutdown, which the driver
// sets with the world running.
func (m *mutator) exit() {
	m.publish()
	m.cardBuf.Flush()
	m.e.arena.PushFreeAll(m.cache)
	m.cache = nil
	if m.local != nil {
		m.local.Flush()
	}
	m.e.stats.MutatorOps.Add(m.ops)
	m.exited.Store(true)
	m.e.mu.Lock()
	m.e.activeMuts--
	m.e.cond.Broadcast()
	m.e.mu.Unlock()
}

// maybePark is the safepoint poll: one atomic load on the fast path. On the
// slow path the mutator publishes its allocation batch (caches are retired
// at a pause, as the paper's mutators do), then parks until the driver
// resumes the world.
func (m *mutator) maybePark() {
	if !m.e.stopFlag.Load() {
		return
	}
	// A stalling mutator stretches the STW latency for everyone: the driver
	// cannot proceed until the last straggler parks.
	m.e.fi.safepointStall.Stall()
	m.publish()
	m.cardBuf.Flush()
	m.e.mu.Lock()
	m.e.parked++
	m.e.cond.Broadcast()
	for m.e.stopWorld {
		m.e.cond.Wait()
	}
	m.e.parked--
	m.e.mu.Unlock()
}

// maybeAck answers a pending fence handshake (Section 5.3 step 2). The
// acknowledgement store is the forced fence; the batch publication rides on
// it, which also bounds how long an allocation bit can stay unpublished.
func (m *mutator) maybeAck() {
	if epoch := m.e.fenceEpoch.Load(); epoch != m.lastEpoch {
		m.lastEpoch = epoch
		m.publish()
		// The handshake is also the card buffer's bound: a registered card
		// set is rescanned only after every mutator acked, so flushing here
		// guarantees buffered dirt never outlives one cleaning pass.
		m.cardBuf.Flush()
		// A delay here holds the driver's forceFences spin mid-handshake:
		// the batch above is published but the ack is withheld.
		m.e.fi.fenceDelay.Stall()
		m.ackEpoch.Store(epoch)
		m.e.stats.ForcedFences.Add(1)
	}
}

// publish makes the batch's allocation bits visible (Section 5.2: one fence
// for a whole cache of objects). During a cycle new objects are also marked
// — allocation is black, so the sweep cannot free an object whose contents
// the cycle never traced.
func (m *mutator) publish() {
	if len(m.pending) == 0 {
		return
	}
	marking := m.e.markingActive.Load()
	for _, obj := range m.pending {
		if marking {
			m.e.arena.Mark.TestAndSetAtomic(int(obj))
		}
		m.e.arena.Alloc.SetAtomic(int(obj))
	}
	m.e.stats.ObjectsAllocated.Add(int64(len(m.pending)))
	m.e.stats.AllocFences.Add(1)
	m.pending = m.pending[:0]
}

func (m *mutator) step() {
	n := m.rng.Intn(m.cum[numOps-1])
	var op opKind
	for op = 0; n >= m.cum[op]; op++ {
	}
	switch op {
	case opAlloc:
		m.doAlloc()
	case opLink:
		if c := m.reachable(); c != heapsim.Nil {
			m.store(c, m.rng.Intn(m.e.arena.refsPer), m.reachable())
		}
	case opUnlink:
		if c := m.reachable(); c != heapsim.Nil {
			m.store(c, m.rng.Intn(m.e.arena.refsPer), heapsim.Nil)
		}
	case opDrop:
		m.roots[m.rng.Intn(len(m.roots))].Store(0)
	case opWalk:
		m.walk()
	}
}

// doAlloc takes an object from the allocation cache (refilling from the
// shared free list), links it into the graph, and queues its allocation bit
// for batched publication. Until that batch publishes, a tracer reaching
// the object takes the deferred path. On heap exhaustion the op degrades to
// dropping a root, so sustained pressure turns into garbage for the next
// cycle instead of a stall.
func (m *mutator) doAlloc() {
	obj := m.takeFromCache()
	if obj == heapsim.Nil {
		m.allocFailed()
		return
	}
	// Seed the new object with an edge into the existing graph half the
	// time, so the heap grows lists and trees rather than isolated cells.
	if t := m.reachable(); t != heapsim.Nil && m.rng.Intn(2) == 0 {
		m.store(obj, m.rng.Intn(m.e.arena.refsPer), t)
	}
	// Install: root it, or hang it off a reachable object.
	if c := m.reachable(); c != heapsim.Nil && m.rng.Intn(2) == 0 {
		m.store(c, m.rng.Intn(m.e.arena.refsPer), obj)
	} else {
		m.roots[m.rng.Intn(len(m.roots))].Store(uint32(obj))
	}
	m.enqueue(obj)
}

// allocFailed is the allocation-stall path of every allocating caller:
// publish the part-filled batch now — with the heap exhausted it may never
// fill, and an unpublished object would bounce through the deferred pool
// until the next handshake — then signal for an early collection and cede
// the processor so the collector can produce free memory (trigger-and-retry,
// not spin).
func (m *mutator) allocFailed() {
	m.e.stats.AllocFailed.Add(1)
	m.publish()
	m.e.memPressure.Store(true)
	runtime.Gosched()
}

// enqueue adds installed objects to the pending allocation batch and
// publishes the batch once it is full.
func (m *mutator) enqueue(objs ...heapsim.Addr) {
	m.pending = append(m.pending, objs...)
	if len(m.pending) >= m.e.cfg.AllocBatch {
		m.publish()
	}
}

func (m *mutator) takeFromCache() heapsim.Addr {
	if len(m.cache) == 0 {
		// Injected heap exhaustion: the refill reports failure exactly as a
		// genuinely empty free list would, so the whole degradation chain
		// (publish part-filled batch, signal pressure, retry next op) runs.
		if m.e.fi.allocFail.Fire() {
			return heapsim.Nil
		}
		m.cache = m.e.arena.PopFreeBatch(m.home, m.e.cfg.AllocBatch, m.cache[:0])
		if len(m.cache) == 0 {
			// Rung 1 of the degradation ladder: with the ladder enabled a
			// failed refill becomes a bounded blocking wait (servicing
			// safepoints and paying the pressure tax) instead of an
			// immediate failure. Only a wait that times out — or the ladder
			// being off — surfaces as allocation failure to the caller.
			if !m.e.cfg.Ladder.Enabled || !m.backpressureRefill() {
				return heapsim.Nil
			}
		}
		// The allocation tax (Section 3.1): every cache refill is this
		// mutator's allocation increment, and the tracing budget it owes is
		// repaid inline before the refill returns. markingActive only flips
		// while the world is stopped, so its value is stable for the whole
		// tax payment.
		if m.e.pacer != nil && m.e.markingActive.Load() {
			m.e.payAllocTax(m, int64(len(m.cache)))
		}
		// Injected overload: the live.overload amplifier burns an extra
		// batch on top of this refill, so offered allocation outruns what
		// tracing can free and the ladder has to carry the run.
		if m.e.fi.overload.Fire() {
			m.amplifyAlloc()
		}
	}
	obj := m.cache[len(m.cache)-1]
	m.cache = m.cache[:len(m.cache)-1]
	return obj
}

// store writes a reference and runs the write barrier: dirty the card of
// the stored-into object, with no fence (Section 5.3) — the slot store
// itself is the only synchronized operation.
func (m *mutator) store(c heapsim.Addr, j int, v heapsim.Addr) {
	m.e.arena.StoreRef(c, j, v)
	if m.e.markingActive.Load() {
		if m.cardBuf != nil {
			m.cardBuf.DirtyObject(c)
		} else {
			m.e.arena.Cards.DirtyObjectAtomic(c)
		}
	}
}

// reachable returns some object reachable from this mutator's roots right
// now: a random root, followed by a few random hops.
func (m *mutator) reachable() heapsim.Addr {
	cur := heapsim.Addr(m.roots[m.rng.Intn(len(m.roots))].Load())
	if cur == heapsim.Nil {
		return heapsim.Nil
	}
	for hop := m.rng.Intn(4); hop > 0; hop-- {
		next := m.e.arena.LoadRef(cur, m.rng.Intn(m.e.arena.refsPer))
		if next == heapsim.Nil {
			break
		}
		cur = next
	}
	return cur
}

// walk is a read-only pointer chase — load traffic racing the tracers.
func (m *mutator) walk() {
	cur := heapsim.Addr(m.roots[m.rng.Intn(len(m.roots))].Load())
	for hop := 0; hop < 8 && cur != heapsim.Nil; hop++ {
		cur = m.e.arena.LoadRef(cur, m.rng.Intn(m.e.arena.refsPer))
	}
}
