package dist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tensor"
)

// MttkrpResult carries a distributed Mttkrp's output and its measured
// communication, plus the alpha-beta modeled times.
type MttkrpResult struct {
	// Out is the reduced output matrix (identical on every rank).
	Out *tensor.Matrix
	// CommBytes and CommMessages are the measured allreduce traffic.
	CommBytes    int64
	CommMessages int64
	// ModeledCommSec is the alpha-beta time of the allreduce.
	ModeledCommSec float64
}

// Mttkrp runs the mode-n Mttkrp over a communicator: non-zeros are
// partitioned contiguously across ranks (the coarse-grained distribution
// of distributed CP-ALS), each rank computes a local partial Ã over its
// shard, and a ring allreduce combines the partials. The factor matrices
// are replicated, matching medium-scale distributed MTTKRP practice.
//
// A rank whose local compute fails aborts the communicator instead of
// silently leaving the collective (the seed code returned early, leaving
// its peers blocked forever in the ring); the call returns the failing
// rank's typed *RankError.
func Mttkrp(c *Comm, net NetworkModel, x *tensor.COO, mats []*tensor.Matrix, mode, r int) (*MttkrpResult, error) {
	return mttkrpInject(c, net, x, mats, mode, r, nil)
}

// mttkrpInject is Mttkrp with a per-rank fault hook: inject(rank)
// non-nil fails that rank before its local compute. Tests use it to
// reproduce the single-rank failure the public API cannot trigger from
// valid inputs (kernel argument errors fail every rank identically).
func mttkrpInject(c *Comm, net NetworkModel, x *tensor.COO, mats []*tensor.Matrix, mode, r int, inject func(rank int) error) (*MttkrpResult, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("dist: mode %d out of range", mode)
	}
	rows := int(x.Dims[mode])
	m := x.NNZ()
	p := c.Size()

	// Per-rank shards as independent COO views (sharing index arrays).
	partials := make([]*tensor.Matrix, p)
	errs := make([]error, p)
	bytes0, msgs0 := c.Stats()
	c.Run(func(rank int) {
		fail := func(err error) {
			errs[rank] = err
			c.Abort(rank, err)
		}
		if inject != nil {
			if err := inject(rank); err != nil {
				fail(err)
				return
			}
		}
		lo := rank * m / p
		hi := (rank + 1) * m / p
		out, err := localMttkrpCOO(x, lo, hi, mats, mode, r)
		if err != nil {
			fail(err)
			return
		}
		if err := c.AllReduceSum(rank, out.Data); err != nil {
			errs[rank] = err
			return
		}
		partials[rank] = out
	})
	if err := distError(c, errs); err != nil {
		return nil, err
	}
	bytes1, msgs1 := c.Stats()

	res := &MttkrpResult{
		Out:          partials[0],
		CommBytes:    bytes1 - bytes0,
		CommMessages: msgs1 - msgs0,
	}
	res.ModeledCommSec = net.AllReduceTime(ValueBytes*int64(rows)*int64(r), p)
	return res, nil
}

// localMttkrpCOO computes one rank's partial over non-zeros [lo, hi).
// An empty shard (hi == lo, the m < p degenerate case) contributes a
// zero partial directly: the rank still has to join the allreduce, it
// just brings nothing to it.
func localMttkrpCOO(x *tensor.COO, lo, hi int, mats []*tensor.Matrix, mode, r int) (*tensor.Matrix, error) {
	if hi == lo {
		return tensor.NewMatrix(int(x.Dims[mode]), r), nil
	}
	local := &tensor.COO{Dims: x.Dims, Inds: shardInds(x, lo, hi), Vals: x.Vals[lo:hi]}
	plan, err := core.PrepareMttkrp(local, mode, r)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteSeq(mats)
}

// distError reduces a distributed call's per-rank errors to the root
// cause: the aborting rank's *RankError when the communicator was
// aborted (peer ErrAborted unwinds are symptoms, not causes), otherwise
// the first per-rank error.
func distError(c *Comm, errs []error) error {
	if err := c.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardInds returns per-mode index slices for non-zeros [lo, hi).
func shardInds(x *tensor.COO, lo, hi int) [][]tensor.Index {
	out := make([][]tensor.Index, x.Order())
	for n := range out {
		out[n] = x.Inds[n][lo:hi]
	}
	return out
}

// TtvResult carries a distributed Ttv's gathered output.
type TtvResult struct {
	// Out is the complete output tensor (gathered at rank 0's shard
	// order, which equals the fiber order of the sorted input).
	Out *tensor.COO
	// CommBytes and CommMessages are the measured gather traffic —
	// recorded by the communicator itself, so Comm.Stats() agrees.
	CommBytes    int64
	CommMessages int64
	// ModeledCommSec is the alpha-beta time of the gather.
	ModeledCommSec float64
}

// Ttv runs the mode-n Ttv over a communicator: fibers are partitioned
// contiguously (their outputs are disjoint), each rank reduces its
// fibers, and the value segments are gathered at rank 0 through the
// communicator — one accounted message per non-root, non-empty segment,
// so Comm.Stats() reports the traffic the alpha-beta model charges.
// (The seed code summed bytes into a local variable and never touched
// the communicator's counters: Stats() stayed zero after a Ttv and
// messages were never counted at all.)
func Ttv(c *Comm, net NetworkModel, x *tensor.COO, v tensor.Vector, mode int) (*TtvResult, error) {
	plan, err := core.PrepareTtv(x, mode)
	if err != nil {
		return nil, err
	}
	if len(v) != int(x.Dims[mode]) {
		return nil, fmt.Errorf("dist: vector length %d, want %d", len(v), x.Dims[mode])
	}
	mf := plan.NumFibers()
	p := c.Size()
	segLens := make([]int, p)
	errs := make([]error, p)
	bytes0, msgs0 := c.Stats()
	c.Run(func(rank int) {
		lo := rank * mf / p
		hi := (rank + 1) * mf / p
		segLens[rank] = hi - lo
		// The rank's segment is its fiber range of the plan's output,
		// computed in place by the shared kernel body; the gather only
		// has to account for moving it to rank 0.
		seg, err := plan.ExecuteFibers(lo, hi, v)
		if err != nil {
			errs[rank] = err
			c.Abort(rank, err)
			return
		}
		if _, err := c.Gather(rank, seg); err != nil {
			errs[rank] = err
		}
	})
	if err := distError(c, errs); err != nil {
		return nil, err
	}
	bytes1, msgs1 := c.Stats()
	res := &TtvResult{
		Out:          plan.Out,
		CommBytes:    bytes1 - bytes0,
		CommMessages: msgs1 - msgs0,
	}
	res.ModeledCommSec = net.GatherTime(GatherVolume(segLens))
	return res, nil
}
