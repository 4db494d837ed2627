// Package ksp implements Krylov-subspace linear solvers (CG and
// restarted GMRES) running over the simulated machine: the solver
// layer of the mini-PETSc (PETSc calls this layer KSP, formerly
// SLES).
//
// Every global reduction is a simulated allreduce and every operator
// application pays its communication and compute costs, so solver
// time responds to data distribution exactly as the paper's Section
// IV experiments require: per-iteration time is gated by the slowest
// rank (load balance) plus halo and reduction traffic.
package ksp

import (
	"math"

	"harmony/internal/simmpi"
	"harmony/internal/sparse"
)

// Result reports a solve.
type Result struct {
	// Iterations actually performed.
	Iterations int
	// Residual is the final (estimated) residual norm.
	Residual float64
	// Converged is false when the iteration budget ran out first.
	Converged bool
}

// CG solves A·x = b with the conjugate-gradient method from inside a
// simulated rank. b is the rank-local slice; the returned slice is
// the rank-local solution. The matrix must be symmetric positive
// definite. Iteration stops when the residual norm falls below
// rtol times the initial residual norm, or after maxIter iterations.
func CG(r *simmpi.Rank, a *sparse.DistMatrix, b []float64, rtol float64, maxIter int) ([]float64, Result) {
	ws := a.AcquireWorkspace(r.ID())
	defer a.ReleaseWorkspace(r.ID(), ws)
	return CGWith(ws, r, a, b, rtol, maxIter)
}

// CGWith is CG running its operator applications through ws: every
// iteration's MatVec reuses the workspace's staging and result
// buffers, so the solver's hot loop allocates only its own iteration
// vectors, once per solve.
//
//harmonyvet:allocamortized iteration vectors are allocated once per solve; the loop reuses them and runs through the annotated allocation-free kernels (MatVecInto, Dot, Axpy)
func CGWith(ws *sparse.Workspace, r *simmpi.Rank, a *sparse.DistMatrix, b []float64, rtol float64, maxIter int) ([]float64, Result) {
	n := len(b)
	x := make([]float64, n)
	res := append([]float64(nil), b...) // r0 = b - A·0
	p := append([]float64(nil), res...)
	rsold := sparse.Dot(r, res, res)
	rs0 := rsold
	if rs0 == 0 {
		return x, Result{Converged: true}
	}
	out := Result{}
	for out.Iterations = 0; out.Iterations < maxIter; out.Iterations++ {
		ap := a.MatVecInto(ws, r, cgTag, p)
		pap := sparse.Dot(r, p, ap)
		if pap == 0 {
			break
		}
		alpha := rsold / pap
		sparse.Axpy(r, alpha, p, x)
		sparse.Axpy(r, -alpha, ap, res)
		rsnew := sparse.Dot(r, res, res)
		if math.Sqrt(rsnew) <= rtol*math.Sqrt(rs0) {
			out.Iterations++
			out.Residual = math.Sqrt(rsnew)
			out.Converged = true
			return x, out
		}
		beta := rsnew / rsold
		for i := range p {
			p[i] = res[i] + beta*p[i]
		}
		sparse.VecCost(r, n)
		rsold = rsnew
	}
	out.Residual = math.Sqrt(rsold)
	return x, out
}

// cgTag is the message tag of CG's operator applications.
const cgTag = 101

// CGCost is the cost skeleton of CGWith at rtol 0: it charges job the
// halo exchanges, allreduces and compute of exactly iters CG
// iterations on the partition hp describes, in CGWith's call order,
// one step for all ranks at a time, and computes nothing. Every
// virtual clock ends bit-identical to the numeric solve's provided
// that solve runs its full budget — at rtol 0 CGWith leaves its loop
// early only when a global reduction (rs0, p·Ap or ‖r‖²) is exactly
// 0.0.
//
//harmonyvet:allocfree
func CGCost(job *simmpi.Lockstep, hp *sparse.HaloPlan, iters int) {
	halo, rows, nnz := hp.Sends(), hp.RowCounts(), hp.NNZCounts()
	job.Compute(rows, sparse.VecFlops) // rs0
	job.AllreduceBytes(8)
	for it := 0; it < iters; it++ {
		job.Exchange(halo, 1) // A·p
		job.Compute(nnz, sparse.FlopsPerNNZ)
		job.Compute(rows, sparse.VecFlops) // p·Ap
		job.AllreduceBytes(8)
		job.Compute(rows, sparse.VecFlops) // x += αp
		job.Compute(rows, sparse.VecFlops) // r -= αAp
		job.Compute(rows, sparse.VecFlops) // ‖r‖²
		job.AllreduceBytes(8)
		job.Compute(rows, sparse.VecFlops) // p = r + βp
	}
}

// Apply evaluates a linear operator on a rank-local vector, paying
// its own simulation costs (communication and compute).
type Apply func(x []float64) []float64

// GMRESWorkspace holds the iteration vectors of a restarted GMRES
// solve: the Krylov basis, the Hessenberg system, and the solution
// and residual buffers. A zero GMRESWorkspace is ready to use;
// GMRESWith sizes it on first use and keeps the capacity, so a
// workspace held across calls — the inner solves of a Newton
// iteration — allocates nothing in steady state.
type GMRESWorkspace struct {
	v      [][]float64
	h      [][]float64
	cs, sn []float64
	g, y   []float64
	x, res []float64
}

// ensure sizes the workspace for restart length m on n-vectors,
// reallocating only what is too small. Contents are unspecified.
//
//harmonyvet:allocamortized grows each buffer to its high-water size once; later solves of the same shape reslice in place
func (ws *GMRESWorkspace) ensure(m, n int) {
	if len(ws.v) < m+1 {
		ws.v = append(ws.v, make([][]float64, m+1-len(ws.v))...)
	}
	for i := 0; i <= m; i++ {
		ws.v[i] = growF(ws.v[i], n)
	}
	if len(ws.h) < m+1 {
		ws.h = append(ws.h, make([][]float64, m+1-len(ws.h))...)
	}
	for i := 0; i <= m; i++ {
		ws.h[i] = growF(ws.h[i], m)
	}
	ws.cs = growF(ws.cs, m)
	ws.sn = growF(ws.sn, m)
	ws.g = growF(ws.g, m+1)
	ws.y = growF(ws.y, m)
	ws.x = growF(ws.x, n)
	ws.res = growF(ws.res, n)
}

//harmonyvet:allocamortized reallocates only to raise the buffer to its high-water capacity; steady-state calls reslice in place
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// GMRES solves op(x) = b with restarted GMRES(m) from inside a
// simulated rank, for general (non-symmetric) operators such as the
// matrix-free Jacobian of the driven-cavity problem. The Hessenberg
// least-squares problem is replicated on every rank from allreduced
// inner products, so all ranks make identical decisions. The returned
// slice is freshly allocated; callers solving repeatedly should hold
// a GMRESWorkspace and use GMRESWith.
//
//harmonyvet:allocamortized the workspace is sized once and the result copied out; repeated solves should use GMRESWith directly
func GMRES(r *simmpi.Rank, op Apply, b []float64, restart, maxIter int, rtol float64) ([]float64, Result) {
	var ws GMRESWorkspace
	x, out := GMRESWith(&ws, r, op, b, restart, maxIter, rtol)
	return append([]float64(nil), x...), out
}

// GMRESWith is GMRES keeping every iteration vector in ws. The
// returned solution aliases ws's buffers and is valid until the next
// GMRESWith on the same workspace. op may return a slice it reuses on
// its next application: GMRES is done with the previous result before
// applying op again.
//
//harmonyvet:allocamortized workspace buffers are sized by ensure to their high-water mark; the Arnoldi loop reuses them, and op is the caller's operator (MatVecInto through a workspace on every hot path)
func GMRESWith(ws *GMRESWorkspace, r *simmpi.Rank, op Apply, b []float64, restart, maxIter int, rtol float64) ([]float64, Result) {
	n := len(b)
	ws.ensure(restart, n)
	x := ws.x
	zero(x)
	bnorm := math.Sqrt(sparse.Dot(r, b, b))
	if bnorm == 0 {
		return x, Result{Converged: true}
	}
	out := Result{}
	res := ws.res
	copy(res, b) // residual of x=0

	for out.Iterations < maxIter {
		beta := math.Sqrt(sparse.Dot(r, res, res))
		if beta <= rtol*bnorm {
			out.Residual = beta
			out.Converged = true
			return x, out
		}
		// Arnoldi with modified Gram–Schmidt.
		m := restart
		v := ws.v
		scaleInto(v[0], res, 1/beta)
		h := ws.h // h[i][j], i row, j column
		cs := ws.cs
		sn := ws.sn
		g := ws.g
		g[0] = beta

		k := 0
		for ; k < m && out.Iterations < maxIter; k++ {
			out.Iterations++
			w := op(v[k])
			for i := 0; i <= k; i++ {
				h[i][k] = sparse.Dot(r, w, v[i])
				axpyLocal(r, -h[i][k], v[i], w)
			}
			h[k+1][k] = math.Sqrt(sparse.Dot(r, w, w))
			if h[k+1][k] > 0 {
				scaleInto(v[k+1], w, 1/h[k+1][k])
			} else {
				zero(v[k+1])
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				h[i][k], h[i+1][k] = cs[i]*h[i][k]+sn[i]*h[i+1][k], -sn[i]*h[i][k]+cs[i]*h[i+1][k]
			}
			// New rotation to annihilate h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h[k][k]/denom, h[k+1][k]/denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			if math.Abs(g[k+1]) <= rtol*bnorm {
				k++
				break
			}
		}
		// Back-substitute y from the k×k triangular system. The
		// buffer is zeroed first: a singular pivot leaves its entry
		// untouched, and a reused workspace must reproduce the
		// fresh-allocation zero there.
		y := ws.y[:k]
		zero(y)
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			if h[i][i] != 0 {
				y[i] = s / h[i][i]
			}
		}
		for j := 0; j < k; j++ {
			axpyLocal(r, y[j], v[j], x)
		}
		// True residual for the restart test.
		ax := op(x)
		for i := range res {
			res[i] = b[i] - ax[i]
		}
		r.Compute(sparse.VecFlops * float64(n))
		rn := math.Sqrt(sparse.Dot(r, res, res))
		out.Residual = rn
		if rn <= rtol*bnorm {
			out.Converged = true
			return x, out
		}
		if k == 0 {
			break // stagnated
		}
	}
	return x, out
}

// scaleInto writes a·v into dst (same length).
func scaleInto(dst, v []float64, a float64) {
	for i := range v {
		dst[i] = a * v[i]
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

func axpyLocal(r *simmpi.Rank, alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
	r.Compute(sparse.VecFlops * float64(len(y)))
}
