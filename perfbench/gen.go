package main

import "math"

// The benchmark's own input generator. It deliberately shares no code with
// internal/server (which has a Zipf of its own): the program under test
// only ever sees the generated keys and operations, so no change to the
// program can change the inputs a seed produces.

// rng is splitmix64: tiny, fast and good enough for key and mix draws.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, by the
// rejection-free method of Gray et al. ("Quickly generating billion-record
// synthetic databases", SIGMOD 1994). Ranks map to keys through a fixed
// scrambling permutation, the same for every seed: which keys are hot
// decides which store shards contend, and letting the seed move them would
// make a run's cost depend on the seed rather than on the program.
type zipf struct {
	n                        int
	theta, alpha, zetan, eta float64
	halfPowTheta             float64
	perm                     []uint16
}

func newZipf(r *rng, n int, theta float64) *zipf {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	z.perm = make([]uint16, n)
	for i := range z.perm {
		z.perm[i] = uint16(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.halfPowTheta:
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

func (z *zipf) key(r *rng) uint64 { return uint64(z.perm[z.rank(r.float())]) }

// Operation codes of one generated request.
const (
	opGet uint8 = iota
	opPut
	opDelete
	opTouch
	numOps
)

// req is one generated request: a key, an operation, and whether the
// connection churns (drops its session) right after it.
type req struct {
	key   uint16
	op    uint8
	churn bool
}

// mix is a workload's request mix; the fractions sum to 1.
type mix struct {
	get, put, del, touch float64
}

func (m mix) draw(u float64) uint8 {
	switch {
	case u < m.get:
		return opGet
	case u < m.get+m.put:
		return opPut
	case u < m.get+m.put+m.del:
		return opDelete
	}
	return opTouch
}

// permSeed fixes the rank-to-key permutation (see zipf).
const permSeed = 0x5EED

// stream pre-generates n requests for one connection. Churn follows the
// server client's jittered lifetime: every churnOps/2+1+U[0,churnOps)
// requests (churnOps 0 disables it).
func stream(seed uint64, conn, n, keys int, theta float64, m mix, churnOps int) []req {
	r := &rng{s: seed*0x2545F4914F6CDD1D + uint64(conn+1)*0x9E3779B97F4A7C15}
	z := newZipf(&rng{s: permSeed}, keys, theta)
	out := make([]req, n)
	next := -1
	if churnOps > 0 {
		next = churnOps/2 + 1 + r.intn(churnOps)
	}
	for i := range out {
		out[i] = req{key: uint16(z.key(r)), op: m.draw(r.float())}
		if next--; next == 0 {
			out[i].churn = true
			next = churnOps/2 + 1 + r.intn(churnOps)
		}
	}
	return out
}
