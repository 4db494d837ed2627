// Package prunepurity exercises the prunepurity analyzer: a value
// produced by a surrogate's Predict may drive pruning decisions and
// flow to the strategy, but must never reach an evaluation cache,
// best-result state, or run accounting.
package prunepurity

type model struct{ w []float64 }

// Predict is the taint source: the surrogate's predicted score.
func (m *model) Predict(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += m.w[i%len(m.w)] * v
	}
	return s
}

type evalCache struct{ m map[string]float64 }

func (c *evalCache) Store(k string, v float64) { c.m[k] = v }

type Result struct {
	BestValue float64
	Evals     int
}

type runStats struct{ TuningCost float64 }

type trial struct {
	predicted float64
	pruned    bool
}

// A prediction must never enter the evaluation cache.
func cachePrediction(m *model, c *evalCache, k string, x []float64) {
	y := m.Predict(x)
	c.Store(k, y) // want `surrogate-predicted value stored into evalCache\.Store \(evaluation cache\)`
}

// A prediction must never become the recorded best.
func recordBest(m *model, res *Result, x []float64) {
	y := m.Predict(x)
	res.BestValue = y // want `surrogate-predicted value assigned to prunepurity\.BestValue \(best-result state\)`
}

// Laundering through arithmetic and a helper does not cleanse it:
// the helper's parameter summary says it sinks, so the call is the
// violation.
func chargeCost(st *runStats, amount float64) {
	st.TuningCost += amount
}

func accountPrediction(m *model, st *runStats, x []float64) {
	y := 0.5 * m.Predict(x)
	chargeCost(st, y) // want `surrogate-predicted value passed to chargeCost, whose parameter 1 flows into`
}

// Field taint crosses function boundaries: the prediction parked in
// trial.predicted is still a prediction when harvested later.
func markPruned(m *model, t *trial, x []float64) {
	t.predicted = m.Predict(x)
	t.pruned = true
}

func harvest(t *trial, res *Result) {
	res.BestValue = t.predicted // want `surrogate-predicted value assigned to prunepurity\.BestValue \(best-result state\)`
}

// A helper whose result carries a prediction taints its call sites.
func guess(m *model, x []float64) float64 {
	return m.Predict(x)
}

func cacheGuess(m *model, c *evalCache, k string, x []float64) {
	c.Store(k, guess(m, x)) // want `surrogate-predicted value stored into evalCache\.Store \(evaluation cache\)`
}

// Negative: branching on a prediction is the pruning design.
func shouldPrune(m *model, x []float64, threshold float64) bool {
	return m.Predict(x) > threshold
}

// Negative: measured values may be cached and recorded freely.
func recordMeasurement(c *evalCache, res *Result, k string, measured float64) {
	c.Store(k, measured)
	res.BestValue = measured
	res.Evals++
}

// Negative: predictions may flow to the strategy — Report/ReportBatch
// is the designed prediction channel.
type strategy interface {
	ReportBatch(xs [][]float64, vals []float64)
}

func reportPredictions(m *model, st strategy, xs [][]float64, vals []float64) {
	for i, x := range xs {
		vals[i] = m.Predict(x)
	}
	st.ReportBatch(xs, vals)
}

// A justified suppression keeps the finding out of the report.
func seedBest(m *model, res *Result, x []float64) {
	warm := m.Predict(x)
	//harmonyvet:ignore prunepurity the warm-start seed is labelled predicted in the client UI and is overwritten by the first real measurement
	res.BestValue = warm
}

// A generic candidate, as the issue/commit window declares it: the
// field written through the declaration and the field read through an
// instantiation are one field, and a method called on an instantiation
// is the declared method.
type candidate[P any] struct {
	predicted float64
	measured  float64
	payload   P
}

func (c *candidate[P]) told() float64 { return c.predicted }

func screen[P any](m *model, c *candidate[P], x []float64) {
	c.predicted = m.Predict(x)
}

func bankInstantiated(c *candidate[int], cache *evalCache, res *Result, k string) {
	cache.Store(k, c.predicted) // want `surrogate-predicted value stored into evalCache\.Store \(evaluation cache\)`
	res.BestValue = c.told()    // want `surrogate-predicted value assigned to prunepurity\.BestValue \(best-result state\)`
	cache.Store(k, c.measured)  // negative: the measured field stays clean
}
