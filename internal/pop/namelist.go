package pop

import (
	"fmt"
	"slices"
	"strconv"

	"harmony/internal/cluster"
	"harmony/internal/space"
)

// paramSpec describes one performance-related namelist parameter:
// its choices in documented order and the per-point work (in flops)
// each choice contributes to its phase. The defaults and the choice
// orderings follow the paper's Tables I and II; parameters the paper
// does not list in Table II have their default as the cheapest choice
// (they are swept by the tuner but not changed).
type paramSpec struct {
	name    string
	phase   string // "baroclinic", "forcing", "io", "diag"
	choices []string
	flops   []float64
	deflt   string
}

var namelistSpecs = []paramSpec{
	{name: "num_iotasks", phase: "io",
		choices: []string{"1", "2", "4", "8", "16", "32"},
		flops:   []float64{0, 0, 0, 0, 0, 0}, deflt: "1"},
	{name: "hmix_momentum_choice", phase: "baroclinic",
		choices: []string{"anis", "del2", "del4"},
		flops:   []float64{25, 8, 15}, deflt: "anis"},
	{name: "hmix_tracer_choice", phase: "baroclinic",
		choices: []string{"gent", "del2", "del4"},
		flops:   []float64{20, 7, 12}, deflt: "gent"},
	{name: "kappa_choice", phase: "baroclinic",
		choices: []string{"constant", "variable"},
		flops:   []float64{5, 2.5}, deflt: "constant"},
	{name: "slope_control_choice", phase: "baroclinic",
		choices: []string{"notanh", "tanh", "clip"},
		flops:   []float64{4, 6, 2.5}, deflt: "notanh"},
	{name: "hmix_alignment_choice", phase: "baroclinic",
		choices: []string{"east", "flow", "grid"},
		flops:   []float64{3, 5, 1.5}, deflt: "east"},
	{name: "state_choice", phase: "baroclinic",
		choices: []string{"jmcd", "polynomial", "linear"},
		flops:   []float64{12, 7, 4}, deflt: "jmcd"},
	{name: "state_range_opt", phase: "baroclinic",
		choices: []string{"ignore", "check", "enforce"},
		flops:   []float64{2.5, 4, 1}, deflt: "ignore"},
	{name: "ws_interp_type", phase: "forcing",
		choices: []string{"nearest", "linear", "4point"},
		flops:   []float64{3, 2, 1.2}, deflt: "nearest"},
	{name: "shf_interp_type", phase: "forcing",
		choices: []string{"nearest", "linear", "4point"},
		flops:   []float64{3, 2, 1.2}, deflt: "nearest"},
	{name: "sfwf_interp_type", phase: "forcing",
		choices: []string{"nearest", "linear", "4point"},
		flops:   []float64{3, 2, 1.2}, deflt: "nearest"},
	{name: "ap_interp_type", phase: "forcing",
		choices: []string{"nearest", "linear", "4point"},
		flops:   []float64{3, 2, 1.2}, deflt: "nearest"},
	{name: "vmix_choice", phase: "baroclinic",
		choices: []string{"kpp", "rich", "const"},
		flops:   []float64{4, 6, 5}, deflt: "kpp"},
	{name: "advect_type", phase: "baroclinic",
		choices: []string{"centered", "upwind3"},
		flops:   []float64{3, 5}, deflt: "centered"},
	{name: "sw_absorption_type", phase: "baroclinic",
		choices: []string{"jerlov", "top-layer"},
		flops:   []float64{1.5, 2.5}, deflt: "jerlov"},
	{name: "tidal_mixing", phase: "baroclinic",
		choices: []string{"off", "on"},
		flops:   []float64{0, 2.5}, deflt: "off"},
	{name: "overflows_on", phase: "baroclinic",
		choices: []string{"off", "on"},
		flops:   []float64{0, 2}, deflt: "off"},
	{name: "ldiag_global", phase: "diag",
		choices: []string{"off", "on"},
		flops:   []float64{0, 0}, deflt: "off"},
	{name: "partial_bottom_cells", phase: "baroclinic",
		choices: []string{"off", "on"},
		flops:   []float64{0, 1.5}, deflt: "off"},
	{name: "tavg_freq_opt", phase: "io",
		choices: []string{"nmonth", "nday", "nstep"},
		flops:   []float64{0, 0, 0}, deflt: "nmonth"},
}

// Base per-point work of each phase, before parameter contributions.
const (
	baseBaroclinicFlops = 250.0
	baseBarotropicFlops = 6.0
	baseForcingFlops    = 4.0
	// ioDumpFields is the number of 2-D field slices written per
	// history dump.
	ioDumpFields = 0.5
	// diskBandwidth is the shared-filesystem write bandwidth.
	diskBandwidth = 2e9
	// ioContention is the per-extra-writer slowdown of the shared
	// filesystem: writers beyond the first pay this fraction extra.
	ioContention = 0.05
	// ioGatherSaturation is the writer count beyond which the fan-in
	// gather no longer speeds up (the filesystem's server links
	// saturate); past it extra writers only add contention, which
	// puts the optimal writer count at a moderate value (Table II
	// tunes num_iotasks to 4).
	ioGatherSaturation = 4
)

// DefaultNamelist returns the paper's default parameter values
// (Table II, "Default" column, plus defaults for the unchanged
// parameters).
func DefaultNamelist() map[string]string {
	m := make(map[string]string, len(namelistSpecs))
	for _, s := range namelistSpecs {
		m[s.name] = s.deflt
	}
	return m
}

// NamelistNames returns the parameter names in documented order — the
// order the coordinate-descent tuner sweeps them (Table I).
func NamelistNames() []string {
	names := make([]string, len(namelistSpecs))
	for i, s := range namelistSpecs {
		names[i] = s.name
	}
	return names
}

// NamelistSpace returns the Tables I/II tuning space: one enum
// parameter per namelist entry, choices in documented order.
func NamelistSpace() *space.Space {
	params := make([]space.Param, len(namelistSpecs))
	for i, s := range namelistSpecs {
		params[i] = space.EnumParam(s.name, s.choices...)
	}
	return space.MustNew(params...)
}

// NamelistStart encodes the default namelist as a NamelistSpace
// point.
func NamelistStart() space.Point {
	sp := NamelistSpace()
	pt, err := sp.Encode(DefaultNamelist())
	if err != nil {
		panic(err) // specs and defaults are statically consistent
	}
	return pt
}

// resolvedNamelist is a resolved, validated set of parameter values.
type resolvedNamelist struct {
	values map[string]string
}

// defaultResolved is the empty namelist resolved once; a resolved one is
// never modified, so every run at the defaults shares it.
var defaultResolved = &resolvedNamelist{values: DefaultNamelist()}

// resolveNamelist validates the given values against the parameter
// specs, filling in defaults for missing entries. Unknown parameters
// or values are errors. Of several bad entries the one reported is
// always the same: the first bad value in documented order, else the
// alphabetically first unknown parameter.
func resolveNamelist(values map[string]string) (*resolvedNamelist, error) {
	if len(values) == 0 {
		return defaultResolved, nil
	}
	out := DefaultNamelist()
	known := 0
	for _, s := range namelistSpecs {
		v, ok := values[s.name]
		if !ok {
			continue
		}
		if !slices.Contains(s.choices, v) {
			return nil, fmt.Errorf("pop: parameter %q has no choice %q", s.name, v)
		}
		out[s.name] = v
		known++
	}
	if known < len(values) {
		var unknown []string
		for k := range values {
			if _, ok := out[k]; !ok {
				unknown = append(unknown, k)
			}
		}
		return nil, fmt.Errorf("pop: unknown namelist parameter %q", slices.Min(unknown))
	}
	return &resolvedNamelist{values: out}, nil
}

// phaseCosts is the frozen cost model of one namelist.
type phaseCosts struct {
	baroclinicFlopsPerPoint float64
	barotropicFlopsPerPoint float64
	forcingFlopsPerPoint    float64
	diagEveryStep           bool
	ioTasks                 int
	ioSizeMult              float64
}

func (nl *resolvedNamelist) costs() phaseCosts {
	c := phaseCosts{
		baroclinicFlopsPerPoint: baseBaroclinicFlops,
		barotropicFlopsPerPoint: baseBarotropicFlops,
		forcingFlopsPerPoint:    baseForcingFlops,
		ioTasks:                 1,
		ioSizeMult:              1,
	}
	for _, s := range namelistSpecs {
		v := nl.values[s.name]
		var add float64
		for i, choice := range s.choices {
			if choice == v {
				add = s.flops[i]
				break
			}
		}
		switch s.phase {
		case "baroclinic":
			c.baroclinicFlopsPerPoint += add
		case "forcing":
			c.forcingFlopsPerPoint += add
		}
	}
	if n, err := strconv.Atoi(nl.values["num_iotasks"]); err == nil {
		c.ioTasks = n
	}
	switch nl.values["tavg_freq_opt"] {
	case "nday":
		c.ioSizeMult = 1.5
	case "nstep":
		c.ioSizeMult = 2.5
	}
	c.diagEveryStep = nl.values["ldiag_global"] == "on"
	return c
}

// ioSeconds models one history dump: a parallel fan-in gather to
// ioTasks writer ranks over the inter-node network, then a write to
// the shared filesystem whose effective bandwidth degrades as more
// writers contend.
func (c phaseCosts) ioSeconds(gridBytes int, m *cluster.Machine) float64 {
	g := float64(gridBytes) * ioDumpFields * c.ioSizeMult
	k := float64(c.ioTasks)
	kEff := k
	if kEff > ioGatherSaturation {
		kEff = ioGatherSaturation
	}
	gather := g / (kEff * m.Inter.Bandwidth)
	write := g / diskBandwidth * (1 + ioContention*(k-1))
	return gather + write
}
