package surrogate

import (
	"fmt"
	"strconv"

	"harmony/internal/cluster"
	"harmony/internal/petscsim"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// cfgInt looks a parameter up by name without the panic-on-missing
// semantics of space.Config.Int: server-side predictors are resolved
// by application name and may be handed a configuration from an
// unrelated space, which must read as "outside the model's
// competence", not as a crash.
func cfgInt(vals map[string]string, name string) (int, bool) {
	v, ok := vals[name]
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// SLES predicts the Fig. 2 PETSc linear-solver objective: a fixed
// number of CG iterations whose time is gated by the heaviest rank of
// the tuned matrix decomposition. The model reads the partition's
// halo plan — per-rank nonzeros, local rows, and distinct ghost
// columns grouped by owner, from the application's plan cache, so a
// candidate that is predicted and then kept walks the CSR once — and
// prices one iteration as the slowest rank's matrix and vector flops
// plus its halo exchange, plus the two scalar allreduces of the CG
// recurrence.
type SLES struct {
	app   *petscsim.SLESApp
	m     *cluster.Machine
	names []string
}

// NewSLES builds the predictor for an SLES application instance on a
// machine. The machine's rank count must match the application's
// partition count.
func NewSLES(app *petscsim.SLESApp, m *cluster.Machine) *SLES {
	names := make([]string, app.P)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i+1)
	}
	return &SLES{app: app, m: m, names: names}
}

// Predict prices one benchmarking run of the decomposition the
// configuration encodes. It declines configurations that do not carry
// the full weight vector of the application's space.
func (s *SLES) Predict(_ space.Point, cfg space.Config) (float64, bool) {
	vals := cfg.Map()
	for _, name := range s.names {
		if _, ok := cfgInt(vals, name); !ok {
			return 0, false
		}
	}
	hp, err := s.app.HaloPlan(s.app.PartitionFor(cfg))
	if err != nil {
		return 0, false
	}

	// Per iteration: MatVec (sparse flops + halo), five length-nloc
	// vector operations (two dots, two axpys, the p-update), and two
	// scalar allreduces. The slowest rank gates the iteration.
	worst := 0.0
	for r := 0; r < s.app.P; r++ {
		nloc := float64(hp.LocalSize(r))
		nnz := float64(hp.LocalNNZ(r))
		t := (sparse.FlopsPerNNZ*nnz + 5*sparse.VecFlops*nloc) / s.m.SpeedOf(r)
		// Both leg lists are in increasing peer order; merging them
		// (a peer's send before its receive) fixes the summation order.
		send, recv := hp.Legs(r)
		for len(send) > 0 || len(recv) > 0 {
			if len(recv) == 0 || (len(send) > 0 && send[0].Peer <= recv[0].Peer) {
				// we ship owned entries to the peer
				t += s.m.LinkBetween(r, send[0].Peer).Overhead
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
