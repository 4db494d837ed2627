package ksp

import (
	"math"
	"math/rand"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/simmpi"
	"harmony/internal/sparse"
)

func machine(p int) *cluster.Machine {
	g := make([]float64, p)
	for i := range g {
		g[i] = 1.0
	}
	return &cluster.Machine{
		Name: "t", Nodes: p, PPN: 1, Gflops: g,
		Intra: cluster.Link{Latency: 1e-6, Bandwidth: 1e9, Overhead: 1e-7},
		Inter: cluster.Link{Latency: 1e-5, Bandwidth: 1e8, Overhead: 1e-6},
	}
}

// solveCG runs the distributed CG on p ranks and gathers the global
// solution plus the result from rank 0.
func solveCG(t *testing.T, a *sparse.CSR, bg []float64, p int, rtol float64, maxIter int) ([]float64, Result) {
	t.Helper()
	part := sparse.EvenPartition(a.N, p)
	dm, err := sparse.NewDistMatrix(a, part)
	if err != nil {
		t.Fatalf("NewDistMatrix: %v", err)
	}
	x := make([]float64, a.N)
	var res Result
	_, err = simmpi.Run(machine(p), p, func(r *simmpi.Rank) {
		xl, rl := CG(r, dm, dm.Scatter(r.ID(), bg), rtol, maxIter)
		lo, _ := part.Range(r.ID())
		copy(x[lo:], xl)
		if r.ID() == 0 {
			res = rl
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return x, res
}

func residualNorm(a *sparse.CSR, x, b []float64) float64 {
	ax := a.MulVec(x)
	var s float64
	for i := range b {
		d := b[i] - ax[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestCGSolvesPoisson(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, p := range []int{1, 3, 4} {
		x, res := solveCG(t, a, b, p, 1e-10, 2000)
		if !res.Converged {
			t.Fatalf("p=%d: CG did not converge: %+v", p, res)
		}
		if rn := residualNorm(a, x, b); rn > 1e-7 {
			t.Errorf("p=%d: residual %v", p, rn)
		}
	}
}

func TestCGSolutionIdenticalAcrossPartitionCounts(t *testing.T) {
	// Determinism: the same mathematical iteration runs regardless of
	// distribution, so results agree to round-off tightness.
	a := sparse.DenseBlockLaplacian(90, []sparse.Block{{Start: 20, Size: 15}})
	b := make([]float64, a.N)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x1, _ := solveCG(t, a, b, 1, 1e-12, 3000)
	x3, _ := solveCG(t, a, b, 3, 1e-12, 3000)
	for i := range x1 {
		if math.Abs(x1[i]-x3[i]) > 1e-9 {
			t.Fatalf("x[%d]: %v vs %v", i, x1[i], x3[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := sparse.Poisson2D(4, 4)
	x, res := solveCG(t, a, make([]float64, a.N), 2, 1e-10, 100)
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero rhs")
		}
	}
}

func TestCGIterationBudget(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	b := make([]float64, a.N)
	b[0] = 1
	_, res := solveCG(t, a, b, 2, 1e-14, 3)
	if res.Converged {
		t.Error("3 iterations should not converge a 400-point Poisson problem")
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3", res.Iterations)
	}
}

func TestCGTimeGatedBySlowestRank(t *testing.T) {
	// An imbalanced partition (dense block on one rank) must cost
	// more simulated time than a balanced one, at equal iteration
	// count — the mechanism behind the paper's 18% PETSc win.
	a := sparse.DenseBlockLaplacian(400, []sparse.Block{{Start: 0, Size: 80}})
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	run := func(part sparse.Partition) float64 {
		dm, err := sparse.NewDistMatrix(a, part)
		if err != nil {
			t.Fatal(err)
		}
		st, err := simmpi.Run(machine(4), 4, func(r *simmpi.Rank) {
			CG(r, dm, dm.Scatter(r.ID(), b), 0, 50) // fixed 50 iterations
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}
	// Balanced-by-nnz: rank 0 gets just the dense block rows.
	balanced := run(sparse.Partition{Starts: []int{0, 80, 187, 293, 400}})
	uneven := run(sparse.EvenPartition(a.N, 4))
	if balanced >= uneven {
		t.Errorf("nnz-balanced time %v should beat even-rows time %v", balanced, uneven)
	}
}

func gmresApply(r *simmpi.Rank, dm *sparse.DistMatrix) Apply {
	ws := new(sparse.Workspace)
	return func(x []float64) []float64 { return dm.MatVecInto(ws, r, 55, x) }
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	// Build a nonsymmetric diagonally dominant matrix: Poisson plus a
	// convection-like skew term.
	base := sparse.Poisson2D(8, 8)
	a := &sparse.CSR{N: base.N, RowPtr: base.RowPtr, Col: base.Col, Val: append([]float64(nil), base.Val...)}
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i+1 {
				a.Val[k] += 0.3
			}
			if int(a.Col[k]) == i-1 {
				a.Val[k] -= 0.3
			}
		}
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	for _, p := range []int{1, 4} {
		part := sparse.EvenPartition(a.N, p)
		dm, err := sparse.NewDistMatrix(a, part)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.N)
		var res Result
		_, err = simmpi.Run(machine(p), p, func(r *simmpi.Rank) {
			xl, rl := GMRESWith(new(GMRESWorkspace), r, gmresApply(r, dm), dm.Scatter(r.ID(), b), 30, 500, 1e-10)
			lo, _ := part.Range(r.ID())
			copy(x[lo:], xl)
			if r.ID() == 0 {
				res = rl
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !res.Converged {
			t.Fatalf("p=%d: GMRES did not converge: %+v", p, res)
		}
		if rn := residualNorm(a, x, b); rn > 1e-6 {
			t.Errorf("p=%d: residual %v", p, rn)
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := sparse.Poisson2D(4, 4)
	dm, err := sparse.NewDistMatrix(a, sparse.EvenPartition(a.N, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = simmpi.Run(machine(2), 2, func(r *simmpi.Rank) {
		x, res := GMRESWith(new(GMRESWorkspace), r, gmresApply(r, dm), make([]float64, dm.LocalSize(r.ID())), 10, 100, 1e-10)
		if !res.Converged {
			panic("zero rhs should converge immediately")
		}
		for _, v := range x {
			if v != 0 {
				panic("nonzero solution")
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGMRESRestartStillConverges(t *testing.T) {
	a := sparse.Poisson2D(10, 10)
	b := make([]float64, a.N)
	b[a.N/2] = 1
	dm, err := sparse.NewDistMatrix(a, sparse.EvenPartition(a.N, 2))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	var res Result
	_, err = simmpi.Run(machine(2), 2, func(r *simmpi.Rank) {
		xl, rl := GMRESWith(new(GMRESWorkspace), r, gmresApply(r, dm), dm.Scatter(r.ID(), b), 5, 3000, 1e-9) // tiny restart
		lo, _ := sparse.EvenPartition(a.N, 2).Range(r.ID())
		copy(x[lo:], xl)
		if r.ID() == 0 {
			res = rl
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("GMRES(5) did not converge: %+v", res)
	}
	if rn := residualNorm(a, x, b); rn > 1e-5 {
		t.Errorf("residual %v", rn)
	}
}
