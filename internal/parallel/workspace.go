package parallel

import (
	"sync"

	"repro/internal/obs"
)

// Pool-effectiveness counters: reuses are pool hits (the "workspace
// reuses" the paper-level counters report), misses are fresh
// allocations. Acquisitions are per kernel call, not per element, so
// they count unconditionally.
var (
	ctrWSReuses = obs.GetCounter("workspace.reuses")
	ctrWSMisses = obs.GetCounter("workspace.misses")
)

// Workspace is a pool of reduction scratch sets keyed by shape, reused
// across kernel invocations. The privatized reduction strategy needs
// threads × output elements of scratch per call; allocating that anew on
// every Execute poisons benchmark loops with allocator and GC traffic, so
// kernels draw buffers here and return them when the reduction is merged.
//
// All methods are safe for concurrent use. Buffers handed out are always
// fully zeroed.
type Workspace struct {
	mu   sync.Mutex
	sets map[setKey][]*PrivateSet
}

type setKey struct{ workers, elems int }

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{sets: make(map[setKey][]*PrivateSet)}
}

var sharedWorkspace = NewWorkspace()

// SharedWorkspace returns the process-wide workspace the reduction
// kernels draw their privatization scratch from.
func SharedWorkspace() *Workspace { return sharedWorkspace }

// PrivateSet is one worker-count's worth of private output copies for a
// privatized reduction: Bufs[w] is worker w's zeroed accumulation buffer.
// Sets are pooled as a unit so steady-state acquisition allocates
// nothing, not even the outer slice.
type PrivateSet struct {
	// Bufs holds one zeroed buffer per worker.
	Bufs [][]float32

	key setKey
}

// Set hands out a PrivateSet of `workers` zeroed buffers of `elems`
// float32 elements each.
func (ws *Workspace) Set(workers, elems int) *PrivateSet {
	if workers < 1 {
		workers = 1
	}
	k := setKey{workers: workers, elems: elems}
	ws.mu.Lock()
	var s *PrivateSet
	if l := ws.sets[k]; len(l) > 0 {
		s = l[len(l)-1]
		ws.sets[k] = l[:len(l)-1]
		ctrWSReuses.Inc()
	} else {
		ctrWSMisses.Inc()
	}
	ws.mu.Unlock()
	if s == nil {
		s = &PrivateSet{key: k, Bufs: make([][]float32, workers)}
		for w := range s.Bufs {
			s.Bufs[w] = make([]float32, elems)
		}
		return s
	}
	for _, b := range s.Bufs {
		for i := range b {
			b[i] = 0
		}
	}
	return s
}

// PutSet returns a set acquired with Set to the pool.
func (ws *Workspace) PutSet(s *PrivateSet) {
	if s == nil || len(s.Bufs) == 0 {
		return
	}
	ws.mu.Lock()
	ws.sets[s.key] = append(ws.sets[s.key], s)
	ws.mu.Unlock()
}
