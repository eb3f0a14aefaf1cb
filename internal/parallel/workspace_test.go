package parallel

import (
	"sync"
	"testing"
)

func TestWorkspaceSizeKeying(t *testing.T) {
	ws := NewWorkspace()
	ws.PutSet(ws.Set(2, 100))
	// Different size must miss, not truncate or regrow the pooled buffers.
	b := ws.Set(2, 200)
	if len(b.Bufs[0]) != 200 {
		t.Fatalf("len = %d, want 200", len(b.Bufs[0]))
	}
	if st := ws.Stats(); st.Hits != 0 {
		t.Fatalf("different size hit the pool: %+v", st)
	}
}

func TestWorkspacePrivateSetReuse(t *testing.T) {
	ws := NewWorkspace()
	s := ws.Set(4, 128)
	if len(s.Bufs) != 4 {
		t.Fatalf("workers = %d, want 4", len(s.Bufs))
	}
	for _, buf := range s.Bufs {
		if len(buf) != 128 {
			t.Fatalf("buf len = %d, want 128", len(buf))
		}
		for i := range buf {
			buf[i] = 1
		}
	}
	ws.PutSet(s)
	s2 := ws.Set(4, 128)
	for w, buf := range s2.Bufs {
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("reused set worker %d not zeroed at %d: %v", w, i, v)
			}
		}
	}
	if st := ws.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// A different shape is a distinct pool key.
	s3 := ws.Set(2, 128)
	if len(s3.Bufs) != 2 {
		t.Fatalf("workers = %d, want 2", len(s3.Bufs))
	}
	if st := ws.Stats(); st.Hits != 1 {
		t.Fatalf("different shape hit the pool: %+v", st)
	}
}

// TestWorkspaceConcurrent hammers one workspace from many goroutines; run
// under -race it proves the pool's locking. Each goroutine checks that the
// buffer it got is zeroed and exclusively owned.
func TestWorkspaceConcurrent(t *testing.T) {
	ws := NewWorkspace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				s := ws.Set(3, 256)
				buf := s.Bufs[g%3]
				for i, v := range buf {
					if v != 0 {
						t.Errorf("goroutine %d: dirty buffer at %d: %v", g, i, v)
						return
					}
				}
				for i := range buf {
					buf[i] = float32(g + 1)
				}
				for i, v := range buf {
					if v != float32(g+1) {
						t.Errorf("goroutine %d: buffer shared, saw %v at %d", g, v, i)
						return
					}
				}
				ws.PutSet(s)
			}
		}(g)
	}
	wg.Wait()
}

// TestWorkspaceSteadyStateNoMisses verifies the pooling contract the
// kernels rely on: after a warm-up acquire/release cycle, further cycles
// of the same shape never miss (and therefore never allocate backing
// arrays).
func TestWorkspaceSteadyStateNoMisses(t *testing.T) {
	ws := NewWorkspace()
	ws.PutSet(ws.Set(4, 1024))
	warm := ws.Stats()
	for i := 0; i < 100; i++ {
		ws.PutSet(ws.Set(4, 1024))
	}
	st := ws.Stats()
	if st.Misses != warm.Misses {
		t.Fatalf("steady state missed: warm %d misses, now %d", warm.Misses, st.Misses)
	}
	if st.Hits != warm.Hits+100 {
		t.Fatalf("hits = %d, want %d", st.Hits, warm.Hits+100)
	}
}
