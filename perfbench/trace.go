package main

// Per-layer timing of the traced run. The benchmark wraps its own calls
// into the program in spans; nothing inside the program is instrumented
// beyond the engine's existing Report and timeline.

// layer names one kind of call the benchmark times.
type layer uint8

const (
	lRequest layer = iota
	lPoll
	lGet
	lPut
	lDelete
	lTouch
	lChurn
	lAlloc
	lStore
	lLoad
	lSetRoot
	numLayers
)

var layerNames = [numLayers]string{
	"request", "mut.poll", "server.get", "server.put", "server.delete",
	"touch", "churn", "mut.alloc", "mut.store", "mut.load", "mut.setroot",
}

// outcome names a call result the traced run counts; each layer's call
// count is its histogram's.
type outcome uint8

const (
	oHit       outcome = iota // GET found its key
	oPutFail                  // PUT found the heap exhausted
	oAllocFail                // session-touch Alloc found the heap exhausted
	numOutcomes
)

// sampleEvery is the 1-in-N rate at which whole request span trees are
// kept; every call still lands in its layer histogram.
const sampleEvery = 1024

// pollStallNs is the Poll duration past which a Poll counts as a stall: it
// parked for a safepoint or waited out a fence.
const pollStallNs = 10_000

// tracer is one connection's span recorder. A nil *tracer is the untraced
// run: every method returns at once, so the untraced request path pays one
// pointer test per call.
type tracer struct {
	clk    func() int64
	layers [numLayers]hist

	pollWait   int64 // ns inside Poll
	pollStalls int64
	outcomes   [numOutcomes]int64

	reqs   int64
	sample bool
	parent int
	spans  []span
}

func newTracer(clk func() int64) *tracer { return &tracer{clk: clk, parent: -1} }

func (t *tracer) count(o outcome) {
	if t != nil {
		t.outcomes[o]++
	}
}

// request starts request number reqs and decides whether its tree is kept.
func (t *tracer) request() {
	if t == nil {
		return
	}
	t.reqs++
	t.sample = t.reqs%sampleEvery == 0
}

// begin opens a leaf call and returns its start time.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return t.clk()
}

// end closes a leaf call opened at t0.
func (t *tracer) end(l layer, t0 int64) {
	if t == nil {
		return
	}
	t1 := t.clk()
	t.note(l, t0, t1)
	if t.sample {
		t.spans = append(t.spans, span{Name: layerNames[l], Start: t0, End: t1, Parent: t.parent, Req: t.reqs})
	}
}

// enter opens a call that has child calls; exit closes it.
func (t *tracer) enter(l layer) (t0 int64, saved int) {
	if t == nil {
		return 0, 0
	}
	t0, saved = t.clk(), t.parent
	if t.sample {
		t.spans = append(t.spans, span{Name: layerNames[l], Start: t0, Parent: t.parent, Req: t.reqs})
		t.parent = len(t.spans) - 1
	}
	return t0, saved
}

func (t *tracer) exit(l layer, t0 int64, saved int) {
	if t == nil {
		return
	}
	t1 := t.clk()
	t.note(l, t0, t1)
	if t.sample {
		t.spans[t.parent].End = t1
		t.parent = saved
	}
}

func (t *tracer) note(l layer, t0, t1 int64) {
	t.layers[l].add(t1 - t0)
	if l == lPoll {
		t.pollWait += t1 - t0
		if t1-t0 > pollStallNs {
			t.pollStalls++
		}
	}
}
