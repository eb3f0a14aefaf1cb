// Package dist simulates distributed-memory execution of the benchmark
// kernels — §7 lists "distributed systems" and adapting the suite "in a
// communication scheme" as upcoming work. Ranks are goroutines connected
// by channels (message passing, no shared mutable state); collectives are
// implemented as a real ring allreduce and a rooted gather whose
// communication volume and message counts are recorded, so the harness can
// model network time with the standard alpha-beta (latency-bandwidth)
// cost model.
//
// The layer is fault tolerant. A rank that fails (kernel error, contained
// panic, injected fault) broadcasts an abort through the communicator's
// cancel channel instead of silently leaving the ring: every collective
// selects on that channel, so peers blocked mid-step unwind with a typed
// error rather than waiting forever on a message nobody will send — the
// deadlock the pre-abort code exhibited. On top of the abort protocol,
// Engine re-shards a failed worker's non-zeros across the survivors and
// retries, so one dead simulated node degrades capacity instead of
// killing the job (DESIGN.md §13).
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Communication traffic and failure events flow into the shared obs
// counter registry (exported by pastad's /metrics as pasta_dist_*).
// Traffic counts unconditionally: messages are collective segments, far
// coarser than the per-element hot paths the Counting() gate protects.
var (
	ctrCommBytes    = obs.GetCounter("dist.comm.bytes")
	ctrCommMsgs     = obs.GetCounter("dist.comm.messages")
	ctrAborts       = obs.GetCounter("dist.aborts")
	ctrRankFailures = obs.GetCounter("dist.rank_failures")
	ctrReshards     = obs.GetCounter("dist.reshards")
	// ctrRetries is the same registry cell the resilience ladder bumps:
	// a re-shard retry is a retry in the suite's failure taxonomy, so it
	// surfaces in the existing resilience counter row.
	ctrRetries = obs.GetCounter("resilience.retries")
)

// ErrAborted marks a collective unwound because a peer rank failed: the
// caller's own work was fine, somebody else died. The communicator's
// Err() carries the root-cause *RankError.
var ErrAborted = errors.New("dist: collective aborted by rank failure")

// RankError is the typed failure of one simulated worker. Rank is the
// worker's stable id (assigned at Engine construction and kept across
// re-shards), so a persistent fault follows the node, not its current
// position in the ring.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string {
	return fmt.Sprintf("dist: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// Comm is a simulated communicator over size ranks. Neighboring ranks
// exchange messages over buffered channels; every payload transfer is
// accounted. A Comm carries a cancel channel: Abort closes it exactly
// once, and every blocking channel operation selects on it, so a failed
// rank can never strand its peers inside a collective.
type Comm struct {
	size int
	// right[r] carries messages from rank r to rank (r+1) % size.
	right []chan []tensor.Value
	// toRoot[r] carries rank r's gather segment to rank 0.
	toRoot []chan []tensor.Value

	bytesSent atomic.Int64
	messages  atomic.Int64

	// abortErr is written once before aborted closes; the channel close
	// publishes it to every reader.
	abortOnce sync.Once
	aborted   chan struct{}
	abortErr  *RankError
}

// NewComm returns a communicator over p ranks (p >= 1).
func NewComm(p int) (*Comm, error) {
	if p < 1 {
		return nil, fmt.Errorf("dist: communicator needs >= 1 rank, got %d", p)
	}
	c := &Comm{
		size:    p,
		right:   make([]chan []tensor.Value, p),
		toRoot:  make([]chan []tensor.Value, p),
		aborted: make(chan struct{}),
	}
	for i := 0; i < p; i++ {
		c.right[i] = make(chan []tensor.Value, 1)
		c.toRoot[i] = make(chan []tensor.Value, 1)
	}
	return c, nil
}

// Stats reports the cumulative communication volume.
func (c *Comm) Stats() (bytes, messages int64) {
	return c.bytesSent.Load(), c.messages.Load()
}

// Abort records rank's failure as the communicator's root cause and
// closes the cancel channel, unwinding every peer blocked in a
// collective. The first abort wins; later ones are no-ops.
func (c *Comm) Abort(rank int, cause error) {
	c.abortOnce.Do(func() {
		re, ok := cause.(*RankError)
		if !ok {
			re = &RankError{Rank: rank, Err: cause}
		}
		c.abortErr = re
		ctrAborts.Inc()
		obs.Emit("dist.abort", fmt.Sprintf("rank%d", rank), obs.PhaseFallback, rank,
			obs.Attr{Key: "cause", Val: cause.Error()})
		close(c.aborted)
	})
}

// WatchContext aborts the communicator when ctx ends, so every rank
// blocked in a collective unwinds promptly on caller cancellation — the
// same escape hatch rank failures use, with rank -1 marking "no worker
// at fault". The RankError wraps the cancellation cause, so
// errors.Is(err, context.Canceled) holds on the error collectives
// return. Callers must invoke the returned stop (as with
// context.AfterFunc) once the collective phase is over.
func (c *Comm) WatchContext(ctx context.Context) (stop func() bool) {
	if ctx == nil {
		return func() bool { return false }
	}
	return context.AfterFunc(ctx, func() {
		c.Abort(-1, fmt.Errorf("dist: run cancelled: %w", context.Cause(ctx)))
	})
}

// Err returns the root-cause *RankError once the communicator has been
// aborted, nil while it is healthy.
func (c *Comm) Err() error {
	select {
	case <-c.aborted:
		return c.abortErr
	default:
		return nil
	}
}

// abortedErr renders the peer-failure error a collective returns when it
// unwinds: ErrAborted wrapping the root cause.
func (c *Comm) abortedErr() error {
	return fmt.Errorf("%w (root cause: %v)", ErrAborted, c.abortErr)
}

// sendRight transfers a payload from rank to its right neighbor. Only
// non-empty payloads are accounted: when a collective's buffer is
// shorter than the rank count, some ring segments are empty, and those
// transfers carry no data — charging them a message would inflate
// Stats() and the alpha-beta latency term modeled from it.
func (c *Comm) sendRight(rank int, data []tensor.Value) error {
	if len(data) > 0 {
		c.bytesSent.Add(tensor.ValueBytes * int64(len(data)))
		c.messages.Add(1)
		ctrCommBytes.Add(tensor.ValueBytes * int64(len(data)))
		ctrCommMsgs.Inc()
	}
	select {
	case c.right[rank] <- data:
		return nil
	case <-c.aborted:
		return c.abortedErr()
	}
}

// recvLeft receives the payload sent by the left neighbor.
func (c *Comm) recvLeft(rank int) ([]tensor.Value, error) {
	left := (rank - 1 + c.size) % c.size
	select {
	case data := <-c.right[left]:
		return data, nil
	case <-c.aborted:
		return nil, c.abortedErr()
	}
}

// AllReduceSum sums the equal-length buffers of all ranks element-wise,
// leaving the full result in every rank's buffer. It is a textbook ring
// allreduce (reduce-scatter then allgather): 2(P-1) messages per rank and
// ~2 n (P-1)/P values moved per rank, the volume the alpha-beta model
// charges. Buffers are modified in place. Must be called by every rank;
// it returns ErrAborted (wrapping the root cause) when a peer fails
// mid-collective instead of blocking forever.
func (c *Comm) AllReduceSum(rank int, buf []tensor.Value) error {
	p := c.size
	if p == 1 {
		return nil
	}
	n := len(buf)
	segStart := func(s int) int { return s * n / p }
	segEnd := func(s int) int { return (s + 1) * n / p }

	// Reduce-scatter: after P-1 steps, rank r holds the fully reduced
	// segment (r+1) mod P.
	for step := 0; step < p-1; step++ {
		sendSeg := ((rank-step)%p + p) % p
		recvSeg := ((rank-step-1)%p + p) % p
		out := append([]tensor.Value(nil), buf[segStart(sendSeg):segEnd(sendSeg)]...)
		if err := c.sendRight(rank, out); err != nil {
			return err
		}
		in, err := c.recvLeft(rank)
		if err != nil {
			return err
		}
		dst := buf[segStart(recvSeg):segEnd(recvSeg)]
		for i := range dst {
			dst[i] += in[i]
		}
	}
	// Allgather: circulate the reduced segments.
	for step := 0; step < p-1; step++ {
		sendSeg := ((rank+1-step)%p + p) % p
		recvSeg := ((rank-step)%p + p) % p
		out := append([]tensor.Value(nil), buf[segStart(sendSeg):segEnd(sendSeg)]...)
		if err := c.sendRight(rank, out); err != nil {
			return err
		}
		in, err := c.recvLeft(rank)
		if err != nil {
			return err
		}
		copy(buf[segStart(recvSeg):segEnd(recvSeg)], in)
	}
	return nil
}

// Gather collects every rank's segment at rank 0, which receives the
// per-rank segments in rank order (its own segment included, untouched).
// Non-root ranks return (nil, nil) on success. One message is accounted
// per non-root, non-empty segment — an empty segment moves no data, so
// charging it would inflate the modeled latency term. Must be called by
// every rank.
func (c *Comm) Gather(rank int, seg []tensor.Value) ([][]tensor.Value, error) {
	if c.size == 1 {
		return [][]tensor.Value{seg}, nil
	}
	if rank != 0 {
		if len(seg) > 0 {
			c.bytesSent.Add(tensor.ValueBytes * int64(len(seg)))
			c.messages.Add(1)
			ctrCommBytes.Add(tensor.ValueBytes * int64(len(seg)))
			ctrCommMsgs.Inc()
		}
		select {
		case c.toRoot[rank] <- seg:
			return nil, nil
		case <-c.aborted:
			return nil, c.abortedErr()
		}
	}
	segs := make([][]tensor.Value, c.size)
	segs[0] = seg
	for r := 1; r < c.size; r++ {
		select {
		case segs[r] = <-c.toRoot[r]:
		case <-c.aborted:
			return nil, c.abortedErr()
		}
	}
	return segs, nil
}

// Run executes fn once per rank concurrently and waits for all ranks.
func (c *Comm) Run(fn func(rank int)) {
	var wg sync.WaitGroup
	wg.Add(c.size)
	for r := 0; r < c.size; r++ {
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(r)
	}
	wg.Wait()
}

// AllReduceVolume returns the exact aggregate traffic a P-rank ring
// allreduce of n values moves — the counts Comm.Stats() reports after
// AllReduceSum. Each of the 2(P-1) steps circulates every segment once
// (n values total per step); only non-empty segments are messages, and
// with the [s·n/P, (s+1)·n/P) segmentation exactly min(n, P) of the P
// segments are non-empty.
func AllReduceVolume(n, p int) (bytes, messages int64) {
	if p <= 1 || n <= 0 {
		return 0, 0
	}
	nonEmpty := n
	if nonEmpty > p {
		nonEmpty = p
	}
	messages = int64(2 * (p - 1) * nonEmpty)
	bytes = int64(2*(p-1)) * int64(n) * tensor.ValueBytes
	return bytes, messages
}

// GatherVolume returns the exact traffic of gathering the per-rank
// segments (segLens[r] values from rank r) at rank 0 — the counts
// Comm.Stats() reports after Gather: one message per non-root, non-empty
// segment, the root's own segment free.
func GatherVolume(segLens []int) (bytes, messages int64) {
	for r, l := range segLens {
		if r == 0 || l <= 0 {
			continue
		}
		bytes += tensor.ValueBytes * int64(l)
		messages++
	}
	return bytes, messages
}

// NetworkModel is the alpha-beta cost model for the simulated network.
type NetworkModel struct {
	// LatencySec is the per-message latency (alpha).
	LatencySec float64
	// BandwidthGBs is the per-link bandwidth (1/beta).
	BandwidthGBs float64
}

// DefaultNetwork approximates a 100 Gb/s HPC interconnect.
var DefaultNetwork = NetworkModel{LatencySec: 2e-6, BandwidthGBs: 12.5}

// AllReduceTime returns the modeled wall time of a ring allreduce of
// nBytes across p ranks: 2(P-1) latency terms plus 2 nBytes (P-1)/P over
// the link bandwidth. When the buffer holds fewer values than ranks,
// the empty ring segments send no messages (matching Comm's accounting),
// so the latency term scales by the non-empty segment fraction.
func (nm NetworkModel) AllReduceTime(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	n := nBytes / tensor.ValueBytes
	nonEmpty := n
	if nonEmpty > int64(p) {
		nonEmpty = int64(p)
	}
	steps := 2 * float64(p-1) * float64(nonEmpty) / float64(p)
	vol := 2 * float64(nBytes) * float64(p-1) / float64(p)
	return steps*nm.LatencySec + vol/(nm.BandwidthGBs*1e9)
}

// GatherTime returns the modeled wall time of a rooted gather given the
// measured traffic: one latency term per message, serialized through the
// root's single link at the model bandwidth. Feeding it the counts
// GatherVolume predicts (== what Comm accounts) keeps the model and the
// measurement in exact agreement.
func (nm NetworkModel) GatherTime(bytes, messages int64) float64 {
	return float64(messages)*nm.LatencySec + float64(bytes)/(nm.BandwidthGBs*1e9)
}
