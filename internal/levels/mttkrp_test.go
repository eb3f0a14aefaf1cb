package levels

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/csf"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The recursive level walker the tree plan replaced, kept as the oracle:
// oracleMttkrp is levels.Mttkrp as it stood, on one goroutine — descend
// assembles coordinate bits down to the output mode's completion, gather
// sums the subtree below it in one scalar r-vector per level.

type oracleWalker struct {
	h        *Hierarchy
	mode     int
	mats     []*tensor.Matrix
	r        int
	out      *tensor.Matrix
	complete int
	idx      []tensor.Index
	scratch  []tensor.Value
}

func oracleMttkrp(h *Hierarchy, mode int, mats []*tensor.Matrix, r int) *tensor.Matrix {
	w := &oracleWalker{
		h: h, mode: mode, mats: mats, r: r, out: tensor.NewMatrix(int(h.Dims[mode]), r),
		complete: h.CompletionLevel(mode),
		idx:      make([]tensor.Index, h.Order()),
		scratch:  make([]tensor.Value, h.Depth()*r),
	}
	w.descend(0, 0, h.NumNodes(0))
	return w.out
}

func (w *oracleWalker) descend(level, lo, hi int) {
	h := w.h
	d := h.Sig.Levels[level]
	m := h.Mode(level)
	for node := lo; node < hi; node++ {
		save := w.idx[m]
		w.idx[m] = save | h.Crd[level][node]<<d.Shift
		clo, chi := int(h.Ptr[level][node]), int(h.Ptr[level][node+1])
		if level == w.complete {
			g := w.scratch[level*w.r : (level+1)*w.r]
			for i := range g {
				g[i] = 0
			}
			w.gather(level+1, clo, chi, g)
			row := w.out.Row(int(w.idx[w.mode]))
			for i := 0; i < w.r; i++ {
				row[i] += g[i]
			}
		} else {
			w.descend(level+1, clo, chi)
		}
		w.idx[m] = save
	}
}

func (w *oracleWalker) gather(level, lo, hi int, dst []tensor.Value) {
	h := w.h
	d := h.Sig.Levels[level]
	m := h.Mode(level)
	if level == h.Depth()-1 {
		u := w.mats[m]
		for node := lo; node < hi; node++ {
			full := w.idx[m] | h.Crd[level][node]<<d.Shift
			v := h.Vals[node]
			urow := u.Row(int(full))
			for i := 0; i < w.r; i++ {
				dst[i] += v * urow[i]
			}
		}
		return
	}
	if d.Partial {
		for node := lo; node < hi; node++ {
			save := w.idx[m]
			w.idx[m] = save | h.Crd[level][node]<<d.Shift
			w.gather(level+1, int(h.Ptr[level][node]), int(h.Ptr[level][node+1]), dst)
			w.idx[m] = save
		}
		return
	}
	u := w.mats[m]
	buf := w.scratch[level*w.r : (level+1)*w.r]
	for node := lo; node < hi; node++ {
		full := w.idx[m] | h.Crd[level][node]
		for i := range buf {
			buf[i] = 0
		}
		save := w.idx[m]
		w.idx[m] = full
		w.gather(level+1, int(h.Ptr[level][node]), int(h.Ptr[level][node+1]), buf)
		w.idx[m] = save
		urow := u.Row(int(full))
		for i := 0; i < w.r; i++ {
			dst[i] += urow[i] * buf[i]
		}
	}
}

// mttkrpSigs are the hierarchies the identity test sweeps: every declared
// signature at several block widths, a tree with a dense level, and two
// that fold a partial level below the roots — directly above the leaves,
// and with its mode's coarse bits above the output mode (shared rows).
func mttkrpSigs(order int) map[string]Signature {
	sigs := map[string]Signature{
		"coo": COOSig(order), "csf": CSFSig(order),
		"bcsf1": BCSFSig(order, 1), "bcsf3": BCSFSig(order, 3), "bcsf7": BCSFSig(order, 7),
		"hicoo2": HiCOOSig(order, 2), "hicoo7": HiCOOSig(order, 7),
	}
	dense := CSFSig(order)
	dense.Levels[1].Kind = Dense
	sigs["dense-1"] = dense
	last := order - 1
	split := CSFSig(order)
	split.Levels = append(split.Levels[:last:last],
		LevelDesc{Kind: Blocked, Slot: last, Shift: 2, Partial: true}, LevelDesc{Kind: Blocked, Slot: last})
	sigs["split-leaf"] = split
	shared := Signature{Name: "coarse-first", Levels: append(
		[]LevelDesc{{Kind: Blocked, Slot: 1, Shift: 2, Partial: true}, {Kind: Compressed, Slot: 0}, {Kind: Blocked, Slot: 1}},
		CSFSig(order).Levels[2:]...)}
	sigs["shared"] = shared
	return sigs
}

// TestMttkrpPlanBitIdenticalToWalker: resolving a hierarchy into the
// plain tree and walking that reproduces the recursive level walker bit
// for bit on one thread, and on two wherever units own their rows — on
// the Go loops and on the AVX2 bodies (cpu.AVX2 forced off and on), so
// that bCSF, HiCOO views, dense levels and split leaves go through both.
func TestMttkrpPlanBitIdenticalToWalker(t *testing.T) {
	ranks := []int{1, 3, 7, 8, 13, 16, 17, 32}
	for _, c := range tensortest.MttkrpCases(t) {
		x := c.X
		mats := make([][]*tensor.Matrix, len(ranks))
		for i, r := range ranks {
			mats[i] = tensortest.SignedFactors(x, r, int64(r))
		}
		for name, sig := range mttkrpSigs(x.Order()) {
			if name == "dense-1" && slices.Max(x.Dims) > 64 {
				continue // a dense level enumerates its whole extent per parent
			}
			for mode := 0; mode < x.Order(); mode++ {
				h, err := Build(x, sig, append([]int{mode}, tensor.OtherModes(x.Order(), mode)...))
				if err != nil {
					t.Fatalf("%s %s mode %d: %v", c.Name, name, mode, err)
				}
				for i, r := range ranks {
					want := oracleMttkrp(h, mode, mats[i], r)
					p, err := PrepareMttkrp(h, mode, r)
					if err != nil {
						t.Fatalf("%s %s mode %d R %d: %v", c.Name, name, mode, r, err)
					}
					for _, asm := range tensortest.BodySides() {
						label := fmt.Sprintf("%s %s mode %d R %d asm %v", c.Name, name, mode, r, asm)
						tensortest.WithAVX2(asm, func() {
							got, err := p.ExecuteSeq(mats[i])
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							tensortest.SameBits(t, label+" ExecuteSeq", got, want)
							for threads := 1; threads <= 2; threads++ {
								if threads > 1 && h.Mode(0) != mode {
									continue // shared rows: concurrent commits reassociate
								}
								got, err := p.ExecuteOMP(mats[i], parallel.Options{Threads: threads, Schedule: parallel.Dynamic, Chunk: 2})
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								tensortest.SameBits(t, fmt.Sprintf("%s ExecuteOMP on %d threads", label, threads), got, want)
							}
						})
					}
				}
			}
		}
	}
}

// TestPrepareMttkrpAliasesCSF: the tree of a CSF hierarchy is the CSF
// arrays themselves — preparing allocates the output and the plan's
// bookkeeping, far less than one index level.
func TestPrepareMttkrpAliasesCSF(t *testing.T) {
	x := testTensor(t, []tensor.Index{30, 20, 25}, 4000, 3)
	c, err := csf.FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := FromCSF(c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := PrepareMttkrp(h, 0, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, level := after.TotalAlloc-before.TotalAlloc, uint64(4*len(c.FIds[1])); got >= level {
		t.Errorf("PrepareMttkrp on a CSF hierarchy allocated %d bytes; level 1 alone holds %d", got, level)
	}
}

// TestPrepareMttkrpErrors: hierarchies the walk cannot serve are an
// ErrMttkrpPrefix at prepare time; operands it cannot run on are csf's
// ErrMttkrp.
func TestPrepareMttkrpErrors(t *testing.T) {
	x := testTensor(t, []tensor.Index{10, 12, 14}, 100, 17)
	line := testTensor(t, []tensor.Index{40}, 20, 18)
	for name, c := range map[string]struct {
		x    *tensor.COO
		sig  Signature
		mo   []int
		mode int
	}{
		"order 1, CSF":              {line, CSFSig(1), []int{0}, 0},
		"order 1, bCSF":             {line, BCSFSig(1, 3), []int{0}, 0},
		"root completes other mode": {x, CSFSig(3), []int{1, 0, 2}, 0},
		"output mode at the leaves": {x, BCSFSig(3, 2), []int{1, 2, 0}, 0},
		"mode out of range":         {x, CSFSig(3), []int{0, 1, 2}, 3},
	} {
		h, err := Build(c.x, c.sig, c.mo)
		if err != nil {
			t.Fatal(name, err)
		}
		if p, err := PrepareMttkrp(h, c.mode, 4); !errors.Is(err, ErrMttkrpPrefix) || p != nil {
			t.Errorf("%s: PrepareMttkrp returned (%v, %v), want (nil, ErrMttkrpPrefix)", name, p != nil, err)
		}
	}
	h, err := Build(x, BCSFSig(3, 2), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareMttkrp(h, 0, 0); !errors.Is(err, csf.ErrMttkrp) {
		t.Errorf("R = 0: %v, want ErrMttkrp", err)
	}
	mats := tensortest.SignedFactors(x, 4, 1)
	mats[2] = tensor.NewMatrix(14, 5)
	if _, err := Mttkrp(h, 0, mats, parallel.Options{}); !errors.Is(err, csf.ErrMttkrp) {
		t.Errorf("mis-shaped factor: %v, want ErrMttkrp", err)
	}
	mats[2] = nil
	if _, err := Mttkrp(h, 0, mats, parallel.Options{}); !errors.Is(err, csf.ErrMttkrp) {
		t.Errorf("nil factor: %v, want ErrMttkrp", err)
	}
}

// TestMttkrpPlanAfterCancellation: on a blocked hierarchy too, the
// execution after a cancelled one is complete.
func TestMttkrpPlanAfterCancellation(t *testing.T) {
	x := testTensor(t, []tensor.Index{40, 12, 14}, 900, 23)
	h, err := Build(x, BCSFSig(3, 2), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	const r = 7
	mats := tensortest.SignedFactors(x, r, 5)
	p, err := PrepareMttkrp(h, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	parallel.SetChunkHook(func(int) { cancel() })
	out, err := p.ExecuteOMP(mats, parallel.Options{Threads: 1, Chunk: 2, Ctx: ctx})
	parallel.SetChunkHook(nil)
	if !errors.Is(err, parallel.ErrDeadline) || out != nil {
		t.Fatalf("cancelled execution returned (%v, %v), want (nil, ErrDeadline)", out != nil, err)
	}
	got, err := p.ExecuteOMP(mats, parallel.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	tensortest.SameBits(t, "execution after a cancelled one", got, oracleMttkrp(h, 0, mats, r))
}
