package search

import "harmony/internal/space"

// PROOptions configure the Parallel Rank Order strategy.
type PROOptions struct {
	// Start is the initial best guess; nil means the space centre.
	Start space.Point
	// Seed drives the initial population spread.
	Seed int64
}

// The round's transformation coefficients: the reflection step through
// the best point, the expansion, and the contraction toward the best.
const (
	proReflectCoeff = 1.0
	proExpandCoeff  = 2.0
	proShrinkCoeff  = 0.5
)

type proState uint8

const (
	proInit proState = iota
	proReflect
	proExpand
	proShrink
	proDone
)

// PRO is the Parallel Rank Order search: the population-based
// successor of the Nelder–Mead kernel that Active Harmony adopted for
// parallel tuning (Tiwari et al.). Every round transforms the whole
// population through the incumbent best point — reflection first,
// expansion if the reflection found a new best, shrink otherwise —
// so all N-1 proposals of a round are independent and can be
// evaluated concurrently by N-1 parallel clients. Ask issues a
// phase's members one at a time and stalls at its end, so the round
// structure (and hence the tuning result) is the same however many of
// them are in flight.
type PRO struct {
	machine
	sp  *space.Space
	rng seededRand

	verts   []vertex // population; verts[bestIdx] is the incumbent
	bestIdx int
	issue   int // member of this phase Ask issues next
	idx     int // member of this phase whose value commits next
	state   proState
	rounds  int

	// The round state, allocated by the first round and rewritten by
	// every later one: the reflected population, then the expanded
	// one (adopting a member copies its coordinates), and collapsed's
	// scratch.
	trial []vertex
	snap  space.Point
}

// NewPRO constructs a PRO strategy over the space.
func NewPRO(sp *space.Space, opt PROOptions) *PRO {
	p := &PRO{sp: sp}
	p.self = p
	p.rng.reset(opt.Seed)
	p.buildPopulation(opt)
	return p
}

// Name implements Strategy.
func (p *PRO) Name() string { return "pro" }

// Rounds reports completed transformation rounds.
func (p *PRO) Rounds() int { return p.rounds }

// Converged reports whether the population collapsed to one point.
func (p *PRO) Converged() bool { return p.state == proDone }

func (p *PRO) buildPopulation(opt PROOptions) {
	start := opt.Start
	if start == nil {
		start = p.sp.Center()
	}
	start = p.sp.Clamp(start)
	// The population is the configurations evaluated per round — on a
	// real cluster, one per parallel client.
	p.verts = make([]vertex, max(2*p.sp.Dims(), 4))
	p.verts[0] = vertex{x: toFloats(start)}
	params := p.sp.Params()
	for i := 1; i < len(p.verts); i++ {
		x := toFloats(start)
		// Spread each point along a random subset of dimensions.
		for d := range x {
			if p.rng.Intn(2) == 0 {
				continue
			}
			span := float64(params[d].Levels()-1) * 0.25
			if span < 1 {
				span = 1
			}
			x[d] += (p.rng.Float64()*2 - 1) * span
		}
		p.verts[i] = vertex{x: clampFloats(p.sp, x)}
	}
	p.state = proInit
	p.idx, p.issue = 0, 0
}

func clampFloats(sp *space.Space, x []float64) []float64 {
	for d := range x {
		if x[d] < 0 {
			x[d] = 0
		}
		if max := float64(sp.Levels(d) - 1); x[d] > max {
			x[d] = max
		}
	}
	return x
}

// phase returns the population the current phase proposes from and
// the member it skips: the incumbent, which keeps its value, except
// in the initial phase. It returns nil once the search is done.
func (p *PRO) phase() (pop []vertex, skip int) {
	switch p.state {
	case proInit:
		return p.verts, -1
	case proReflect:
		return p.reflected(), p.bestIdx
	case proExpand:
		return p.expanded(), p.bestIdx
	case proShrink:
		return p.verts, p.bestIdx
	}
	return nil, -1
}

// begin enters a phase that skips the incumbent.
func (p *PRO) begin(state proState) {
	p.state, p.idx = state, 0
	if p.idx == p.bestIdx {
		p.idx++
	}
	p.issue = p.idx
}

// Ask implements AsyncStrategy: the members of the current phase
// (initial population, reflected/expanded trial population, or
// shrunken population), all of which are independent, one at a time.
// It stalls once the phase is fully issued, until its last value
// commits.
func (p *PRO) Ask() (space.Point, bool) {
	pop, skip := p.phase()
	if pop == nil {
		return p.finish()
	}
	if p.issue == len(pop) {
		return nil, false
	}
	pt := p.sp.Nearest(pop[p.issue].x)
	if p.issue++; p.issue == skip {
		p.issue++
	}
	return pt, true
}

// Commit implements AsyncStrategy.
func (p *PRO) Commit(pt space.Point, value float64) {
	p.observe(pt, value)
	pop, skip := p.phase()
	if pop == nil {
		return
	}
	pop[p.idx].f = value
	if p.idx++; p.idx == skip {
		p.idx++
	}
	if p.idx < len(pop) {
		return
	}
	switch p.state {
	case proReflect:
		p.afterReflect()
	case proExpand:
		p.afterExpand()
	default: // the initial or the shrunken population
		p.refreshBest()
		p.startRound()
	}
}

func (p *PRO) refreshBest() {
	best := 0
	for i := range p.verts {
		if p.verts[i].f < p.verts[best].f {
			best = i
		}
	}
	p.bestIdx = best
}

// startRound begins a new transformation round with a reflection of
// the whole population through the best point.
func (p *PRO) startRound() {
	if p.trial == nil {
		n, dims := len(p.verts), p.sp.Dims()
		xs := make([]float64, 2*n*dims)
		p.trial = make([]vertex, 2*n)
		for i := range p.trial {
			p.trial[i].x = xs[i*dims : (i+1)*dims : (i+1)*dims]
		}
		p.snap = make(space.Point, 2*dims)
	}
	if collapsed(p.sp, p.verts, p.snap) {
		p.state = proDone
		return
	}
	p.rounds++
	p.transform(proReflectCoeff, p.reflected())
	p.begin(proReflect)
}

func (p *PRO) reflected() []vertex { return p.trial[:len(p.verts)] }
func (p *PRO) expanded() []vertex  { return p.trial[len(p.verts):] }

// transform writes the trial population best + coeff·(best − x_i)
// into out.
func (p *PRO) transform(coeff float64, out []vertex) {
	best := p.verts[p.bestIdx]
	for i, v := range out {
		if i == p.bestIdx {
			copy(v.x, best.x)
			out[i].f = best.f
			continue
		}
		for d := range v.x {
			v.x[d] = best.x[d] + coeff*(best.x[d]-p.verts[i].x[d])
		}
		clampFloats(p.sp, v.x)
	}
}

func (p *PRO) afterReflect() {
	if p.candidateBeatsBest() {
		// The reflection found a new global best: try expanding
		// further along the same directions before committing.
		p.transform(proExpandCoeff, p.expanded())
		p.begin(proExpand)
		return
	}
	// The rank-ordering step: keep, per position, the better of the
	// original and its reflection. If nothing improved anywhere,
	// shrink toward the best instead.
	if p.adoptBetter(p.reflected()) {
		p.refreshBest()
		p.startRound()
		return
	}
	p.beginShrink()
}

func (p *PRO) afterExpand() {
	// Per position, keep the best of original, reflected, expanded.
	p.adoptBetter(p.reflected())
	p.adoptBetter(p.expanded())
	p.refreshBest()
	p.startRound()
}

// adoptBetter copies into the population the trial members that beat
// their counterparts, returning whether any replacement happened.
func (p *PRO) adoptBetter(trial []vertex) bool {
	improved := false
	for i := range p.verts {
		if i == p.bestIdx {
			continue
		}
		if trial[i].f < p.verts[i].f {
			copy(p.verts[i].x, trial[i].x)
			p.verts[i].f = trial[i].f
			improved = true
		}
	}
	return improved
}

func (p *PRO) candidateBeatsBest() bool {
	best := p.verts[p.bestIdx].f
	for i, v := range p.reflected() {
		if i == p.bestIdx {
			continue
		}
		if v.f < best {
			return true
		}
	}
	return false
}

func (p *PRO) beginShrink() {
	best := p.verts[p.bestIdx]
	for i := range p.verts {
		if i == p.bestIdx {
			continue
		}
		for d := range p.verts[i].x {
			// Contract toward the best, with a ±1-level jitter that
			// rotates the population's search directions: reflections
			// through a single point keep each member collinear with
			// the best forever, so without the jitter the direction
			// set is frozen at initialisation and the search stalls
			// on any optimum off those lines.
			jitter := p.rng.Float64()*2 - 1
			p.verts[i].x[d] = best.x[d] + proShrinkCoeff*(p.verts[i].x[d]-best.x[d]) + jitter
		}
		p.verts[i].x = clampFloats(p.sp, p.verts[i].x)
	}
	p.begin(proShrink)
}
