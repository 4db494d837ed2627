package petscsim

import (
	"harmony/internal/cluster"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// SLESPredictor prices a decomposition of the Fig. 2 objective in
// closed form, without executing a job: ksp.CGCost's program — a
// fixed number of CG iterations — read for the rank that gates an
// iteration. It reads the partition's halo plan (per-rank nonzeros,
// local rows, and halo legs), built into pooled storage as a run's is,
// and prices one iteration as the slowest rank's matrix and vector flops
// plus its halo exchange, plus the two scalar allreduces of the CG
// recurrence. It ignores scheduling interleave, which the simulation
// resolves exactly: the tuning engine uses it to rank candidates,
// never as a measurement.
type SLESPredictor struct {
	app *SLESApp
	m   *cluster.Machine
}

// Predictor builds the predictor of the application on a machine. The
// machine's rank count must match the application's partition count.
func (app *SLESApp) Predictor(m *cluster.Machine) *SLESPredictor {
	return &SLESPredictor{app: app, m: m}
}

// Predict prices one benchmarking run of the decomposition the
// configuration encodes. It declines configurations that do not carry
// the full, positive weight vector of the application's space, and
// points of another length: a space of more ranks also holds the first
// P weights, but it is another decomposition problem.
func (s *SLESPredictor) Predict(pt space.Point, cfg space.Config) (float64, bool) {
	if len(pt) != s.app.P {
		return 0, false
	}
	var starts [65]int
	part, err := s.app.partitionInto(starts[:0], cfg)
	if err != nil {
		return 0, false
	}
	hp, err := s.app.A.AcquirePlan(part)
	if err != nil {
		return 0, false
	}
	defer hp.Release()

	// Per iteration: MatVec (sparse flops + halo), five length-nloc
	// vector operations (two dots, two axpys, the p-update), and two
	// scalar allreduces. The slowest rank gates the iteration.
	worst := 0.0
	sends := hp.Sends()
	for r := 0; r < s.app.P; r++ {
		nloc := float64(hp.LocalSize(r))
		nnz := float64(hp.LocalNNZ(r))
		t := (sparse.FlopsPerNNZ*nnz + 5*sparse.VecFlops*nloc) / s.m.SpeedOf(r)
		// Both leg lists are in increasing peer order; merging them
		// (a peer's send before its receive) fixes the summation order.
		send, recv := sends.Dst[sends.Start[r]:sends.Start[r+1]], hp.Recvs(r)
		for len(send) > 0 || len(recv) > 0 {
			if len(recv) == 0 || (len(send) > 0 && send[0] <= recv[0].Peer) {
				// we ship owned entries to the peer
				t += s.m.LinkBetween(r, send[0]).Overhead
				send = send[1:]
			} else { // we wait for our ghosts
				link := s.m.LinkBetween(recv[0].Peer, r)
				t += link.Latency + 8*float64(recv[0].Count)/link.Bandwidth
				recv = recv[1:]
			}
		}
		if t > worst {
			worst = t
		}
	}
	dot := simmpi.TreeCost(s.m, s.app.P, 8)
	perIter := worst + 2*dot
	// The initial residual dot before the loop.
	total := float64(s.app.Iterations)*perIter + dot
	if total <= 0 {
		return 0, false
	}
	return total, true
}
