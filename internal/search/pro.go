package search

import (
	"math/rand"

	"harmony/internal/space"
)

// PROOptions configure the Parallel Rank Order strategy.
type PROOptions struct {
	// Points is the population size (the number of configurations
	// evaluated per round — on a real cluster, one per parallel
	// client). Default 2×dims, minimum 4.
	Points int
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

func (o *PROOptions) setDefaults(dims int) {
	if o.Points == 0 {
		o.Points = 2 * dims
	}
	if o.Points < 4 {
		o.Points = 4
	}
}

type proState int

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
// evaluated concurrently by N-1 parallel clients. PRO implements
// both the sequential ask/tell Strategy interface and BatchStrategy;
// the round structure (and hence the tuning result) is identical
// either way: ReportBatch replays the values through the same state
// machine in the same order Next/Report would have seen them.
type PRO struct {
	tracker
	sp   *space.Space
	opt  PROOptions
	dims int
	rng  *rand.Rand

	verts   []vertex // population; verts[bestIdx] is the incumbent
	bestIdx int

	state          proState
	idx            int      // vertex being evaluated in this phase
	candidate      []vertex // reflected or expanded trial population
	reflectedSaved []vertex // reflected population kept during expansion
	pending        space.Point
	rounds         int
}

// NewPRO constructs a PRO strategy over the space.
func NewPRO(sp *space.Space, opt PROOptions) *PRO {
	opt.setDefaults(sp.Dims())
	p := &PRO{sp: sp, opt: opt, dims: sp.Dims()}
	p.buildPopulation()
	return p
}

// Name implements Strategy.
func (p *PRO) Name() string { return "pro" }

// Rounds reports completed transformation rounds.
func (p *PRO) Rounds() int { return p.rounds }

// Converged reports whether the population collapsed to one point.
func (p *PRO) Converged() bool { return p.state == proDone }

func (p *PRO) buildPopulation() {
	start := p.opt.Start
	if start == nil {
		start = p.sp.Center()
	}
	start = p.sp.Clamp(start)
	p.rng = rand.New(rand.NewSource(p.opt.Seed))
	rng := p.rng
	p.verts = make([]vertex, p.opt.Points)
	p.verts[0] = vertex{x: toFloats(start)}
	params := p.sp.Params()
	for i := 1; i < p.opt.Points; i++ {
		x := toFloats(start)
		// Spread each point along a random subset of dimensions.
		for d := range x {
			if rng.Intn(2) == 0 {
				continue
			}
			span := float64(params[d].Levels()-1) * 0.25
			if span < 1 {
				span = 1
			}
			x[d] += (rng.Float64()*2 - 1) * span
		}
		p.verts[i] = vertex{x: clampFloats(p.sp, x)}
	}
	p.state = proInit
	p.idx = 0
}

func clampFloats(sp *space.Space, x []float64) []float64 {
	params := sp.Params()
	for d := range x {
		if x[d] < 0 {
			x[d] = 0
		}
		if max := float64(params[d].Levels() - 1); x[d] > max {
			x[d] = max
		}
	}
	return x
}

// Next implements Strategy.
func (p *PRO) Next() (space.Point, bool) {
	if p.pending != nil {
		return p.pending.Clone(), true
	}
	switch p.state {
	case proInit:
		p.pending = p.sp.Nearest(p.verts[p.idx].x)
	case proReflect, proExpand:
		p.pending = p.sp.Nearest(p.candidate[p.idx].x)
	case proShrink:
		p.pending = p.sp.Nearest(p.verts[p.idx].x)
	case proDone:
		return nil, false
	}
	return p.pending.Clone(), true
}

// NextBatch implements BatchStrategy: the remaining proposals of the
// current phase (initial population, reflected/expanded trial
// population, or shrunken population), all of which are independent.
func (p *PRO) NextBatch() []space.Point {
	if p.pending != nil {
		// Mid-proposal from interleaved sequential use: finish it as
		// a batch of one before opening the rest of the phase.
		return []space.Point{p.pending.Clone()}
	}
	var phase []vertex
	skip := -1 // the incumbent, which keeps its value
	switch p.state {
	case proInit:
		phase = p.verts
	case proReflect, proExpand:
		phase, skip = p.candidate, p.bestIdx
	case proShrink:
		phase, skip = p.verts, p.bestIdx
	case proDone:
		return nil
	}
	n := len(phase) - p.idx
	if skip >= p.idx {
		n--
	}
	pts := make([]space.Point, 0, n)
	for i := p.idx; i < len(phase); i++ {
		if i != skip {
			pts = append(pts, p.sp.Nearest(phase[i].x))
		}
	}
	return pts
}

// ReportBatch implements BatchStrategy by replaying the values, in
// order, through the sequential state machine. The proposals of a
// phase are fixed when the phase starts, so the replay visits exactly
// the points NextBatch returned; reporting a strict prefix leaves the
// phase partially evaluated and NextBatch resumes it.
func (p *PRO) ReportBatch(pts []space.Point, values []float64) {
	for i := range pts {
		if p.pending == nil {
			p.pending = pts[i] // Report clears it without keeping it
		}
		p.Report(pts[i], values[i])
	}
}

// Report implements Strategy.
func (p *PRO) Report(pt space.Point, value float64) {
	mustPending(p.Name(), p.pending)
	p.observe(pt, value)
	p.pending = nil

	switch p.state {
	case proInit:
		p.verts[p.idx].f = value
		p.idx++
		if p.idx == len(p.verts) {
			p.refreshBest()
			p.startRound()
		}
	case proReflect:
		p.candidate[p.idx].f = value
		if p.advanceCandidate() {
			p.afterReflect()
		}
	case proExpand:
		p.candidate[p.idx].f = value
		if p.advanceCandidate() {
			p.afterExpand()
		}
	case proShrink:
		p.verts[p.idx].f = value
		p.idx++
		for p.idx == p.bestIdx && p.idx < len(p.verts) {
			p.idx++ // the incumbent keeps its value
		}
		if p.idx >= len(p.verts) {
			p.refreshBest()
			p.startRound()
		}
	case proDone:
	}
}

// advanceCandidate moves to the next non-best candidate; reports true
// when the trial population is fully evaluated.
func (p *PRO) advanceCandidate() bool {
	p.idx++
	for p.idx == p.bestIdx && p.idx < len(p.candidate) {
		p.idx++
	}
	return p.idx >= len(p.candidate)
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
	if p.collapsed() {
		p.state = proDone
		return
	}
	p.rounds++
	p.candidate = p.transform(proReflectCoeff)
	p.state = proReflect
	p.idx = 0
	if p.idx == p.bestIdx {
		p.idx++
	}
}

// transform builds a trial population: best + coeff·(best − x_i).
func (p *PRO) transform(coeff float64) []vertex {
	best := p.verts[p.bestIdx]
	out := make([]vertex, len(p.verts))
	for i := range p.verts {
		if i == p.bestIdx {
			out[i] = vertex{x: append([]float64(nil), best.x...), f: best.f}
			continue
		}
		x := make([]float64, p.dims)
		for d := range x {
			x[d] = best.x[d] + coeff*(best.x[d]-p.verts[i].x[d])
		}
		out[i] = vertex{x: clampFloats(p.sp, x)}
	}
	return out
}

func (p *PRO) afterReflect() {
	if p.candidateBeatsBest() {
		// The reflection found a new global best: try expanding
		// further along the same directions before committing.
		p.reflectedSaved = p.candidate
		p.candidate = p.transform(proExpandCoeff)
		p.state = proExpand
		p.idx = 0
		if p.idx == p.bestIdx {
			p.idx++
		}
		return
	}
	// The rank-ordering step: keep, per position, the better of the
	// original and its reflection. If nothing improved anywhere,
	// shrink toward the best instead.
	improved := p.adoptBetter(p.candidate)
	p.candidate = nil
	if improved {
		p.refreshBest()
		p.startRound()
		return
	}
	p.beginShrink()
}

func (p *PRO) afterExpand() {
	// Per position, keep the best of original, reflected, expanded.
	p.adoptBetter(p.reflectedSaved)
	p.adoptBetter(p.candidate)
	p.reflectedSaved = nil
	p.candidate = nil
	p.refreshBest()
	p.startRound()
}

// adoptBetter replaces population members with trial members that
// beat them, returning whether any replacement happened.
func (p *PRO) adoptBetter(trial []vertex) bool {
	improved := false
	for i := range p.verts {
		if i == p.bestIdx {
			continue
		}
		if trial[i].f < p.verts[i].f {
			p.verts[i] = trial[i]
			improved = true
		}
	}
	return improved
}

func (p *PRO) candidateBeatsBest() bool {
	best := p.verts[p.bestIdx].f
	for i, v := range p.candidate {
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
	p.state = proShrink
	p.idx = 0
	if p.idx == p.bestIdx {
		p.idx++
	}
}

// collapsed reports whether the whole population snaps to one lattice
// point.
func (p *PRO) collapsed() bool {
	first := p.sp.Nearest(p.verts[0].x)
	for _, v := range p.verts[1:] {
		if !p.sp.Nearest(v.x).Equal(first) {
			return false
		}
	}
	return true
}
