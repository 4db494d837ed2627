// Package snes implements an inexact Newton–Krylov nonlinear solver
// with backtracking line search over the simulated machine: the
// nonlinear layer of the mini-PETSc (PETSc's SNES), used by the
// driven-cavity computation-distribution experiment of Section IV.
//
// The Jacobian is applied matrix-free by finite differences, so the
// only thing an application provides is its residual function — which
// pays its own simulated communication (halo exchange) and compute
// costs per evaluation.
package snes

import (
	"math"

	"harmony/internal/ksp"
	"harmony/internal/simmpi"
	"harmony/internal/sparse"
)

// Func evaluates the rank-local nonlinear residual F(x) for the
// rank-local state x, paying its simulation costs.
type Func func(x []float64) []float64

// Options configure the Newton solve.
type Options struct {
	// MaxNewton bounds outer Newton iterations. Default 50.
	MaxNewton int
	// Rtol is the relative residual-norm tolerance. Default 1e-8.
	Rtol float64
	// Atol is the absolute tolerance. Default 1e-12.
	Atol float64
	// LinearRtol is the inner GMRES tolerance. Default 1e-4.
	LinearRtol float64
	// Restart is the GMRES restart length. Default 30.
	Restart int
	// MaxLinearIter bounds inner iterations per Newton step.
	// Default 200.
	MaxLinearIter int
	// MaxBacktracks bounds line-search halvings. Default 8.
	MaxBacktracks int
}

func (o *Options) setDefaults() {
	if o.MaxNewton == 0 {
		o.MaxNewton = 50
	}
	if o.Rtol == 0 {
		o.Rtol = 1e-8
	}
	if o.Atol == 0 {
		o.Atol = 1e-12
	}
	if o.LinearRtol == 0 {
		o.LinearRtol = 1e-4
	}
	if o.Restart == 0 {
		o.Restart = 30
	}
	if o.MaxLinearIter == 0 {
		o.MaxLinearIter = 200
	}
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = 8
	}
}

// Result reports a nonlinear solve.
type Result struct {
	NewtonIterations int
	LinearIterations int
	FuncEvaluations  int
	Residual         float64
	Converged        bool
}

// Solve runs Newton–Krylov from inside a simulated rank. x0 is the
// rank-local initial guess; the returned slice is the rank-local
// solution.
//
// The per-solve scratch (Jacobian-action buffers, Newton rhs,
// line-search trial, GMRES workspace) is allocated once before the
// Newton loop; the inner loops allocate only what f itself allocates.
func Solve(r *simmpi.Rank, f Func, x0 []float64, opt Options) ([]float64, Result) {
	opt.setDefaults()
	out := Result{}
	x := append([]float64(nil), x0...)

	eval := func(v []float64) []float64 {
		out.FuncEvaluations++
		return f(v)
	}

	fx := eval(x)
	norm := math.Sqrt(sparse.Dot(r, fx, fx))
	norm0 := norm

	// Per-solve scratch, reused across every Newton iteration: the
	// Jacobian-action buffers (xp perturbed state, jvOut result), the
	// Newton right-hand side, the line-search trial state, and the
	// whole GMRES workspace (Krylov basis, Hessenberg system). The
	// inner loops then allocate only what the residual function f
	// itself allocates.
	n := len(x)
	xp := make([]float64, n)
	jvOut := make([]float64, n)
	rhs := make([]float64, n)
	xTrial := make([]float64, n)
	var gws ksp.GMRESWorkspace

	for out.NewtonIterations = 0; out.NewtonIterations < opt.MaxNewton; out.NewtonIterations++ {
		if norm <= opt.Rtol*norm0+opt.Atol {
			out.Converged = true
			break
		}
		// Matrix-free Jacobian action: J·v ≈ (F(x + εv) − F(x))/ε.
		// jvOut is reused by every application; GMRES is done with the
		// previous result before applying the operator again.
		xnorm := math.Sqrt(sparse.Dot(r, x, x))
		jv := func(v []float64) []float64 {
			vnorm := math.Sqrt(sparse.Dot(r, v, v))
			if vnorm == 0 {
				for i := range jvOut {
					jvOut[i] = 0
				}
				return jvOut
			}
			eps := 1e-7 * (1 + xnorm) / vnorm
			for i := range x {
				xp[i] = x[i] + eps*v[i]
			}
			r.Compute(sparse.VecFlops * float64(len(x)))
			fp := eval(xp)
			for i := range jvOut {
				jvOut[i] = (fp[i] - fx[i]) / eps
			}
			r.Compute(sparse.VecFlops * float64(len(x)))
			return jvOut
		}
		// Solve J·d = −F. d lives in the GMRES workspace, valid until
		// the next inner solve — after the line search is done with it.
		for i := range rhs {
			rhs[i] = -fx[i]
		}
		d, lin := ksp.GMRESWith(&gws, r, jv, rhs, opt.Restart, opt.MaxLinearIter, opt.LinearRtol)
		out.LinearIterations += lin.Iterations

		// Backtracking line search on ||F||. Trials overwrite xTrial;
		// on acceptance the buffers swap, so the displaced state slice
		// becomes the next iteration's trial scratch.
		lambda := 1.0
		xNew := xTrial
		var fNew []float64
		var normNew float64
		accepted := false
		for bt := 0; bt <= opt.MaxBacktracks; bt++ {
			for i := range x {
				xNew[i] = x[i] + lambda*d[i]
			}
			r.Compute(sparse.VecFlops * float64(len(x)))
			fNew = eval(xNew)
			normNew = math.Sqrt(sparse.Dot(r, fNew, fNew))
			if normNew < (1-1e-4*lambda)*norm {
				accepted = true
				break
			}
			lambda /= 2
		}
		if !accepted {
			// Stalled: accept the last trial only if it does not make
			// things worse, then stop.
			if normNew < norm {
				x, fx, norm = xNew, fNew, normNew
			}
			break
		}
		xTrial = x
		x, fx, norm = xNew, fNew, normNew
	}
	if norm <= opt.Rtol*norm0+opt.Atol {
		out.Converged = true
	}
	out.Residual = norm
	return x, out
}
