package kernelreg

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/csf"
	"repro/internal/levels"
	"repro/internal/obs"
	"repro/internal/roofline"
)

// Format conversion. Every level-view format has one construction: CSF
// is the workbench's cached tree (csf.FromCOO over the sorted view) seen
// through levels.FromCSF, which copies nothing; blocked-CSF splits that
// wrap's root (levels.BlockRoot, one linear scan); COO and HiCOO are
// built from the sorted view (levels.Build). Each conversion runs under
// an obs PhaseConvert span and records its measured cost in the
// workbench's ConvCosts.

// Conversion edges. Each edge name doubles as its obs span label, so
// the cost record and the trace read the same vocabulary.
const (
	// EdgeCSFFromCOO sorts COO (or takes the workbench's sorted view) and
	// compresses it into a CSF tree.
	EdgeCSFFromCOO = "csf.FromCOO"
	// EdgeBuild is a direct COO→hierarchy materialization; the full span
	// label carries the format, e.g. "levels.Build:HiCOO".
	EdgeBuild = "levels.Build"
	// EdgeBlockRoot splits a CSF tree's root into a coarse blocked level
	// (one linear scan).
	EdgeBlockRoot = "levels.BlockRoot"
)

// ConvCosts records what each conversion edge cost on one workbench: an
// exponentially weighted moving average of ns per non-zero, updated
// from every executed conversion. No path is chosen from it; it is the
// measurement the benchmark reports per layer.
type ConvCosts struct {
	mu sync.Mutex
	ns map[string]float64
}

// NewConvCosts returns an empty record.
func NewConvCosts() *ConvCosts {
	return &ConvCosts{ns: make(map[string]float64)}
}

// Observe folds one measured conversion into the edge's moving average.
func (c *ConvCosts) Observe(edge string, nnz int, d time.Duration) {
	if nnz <= 0 {
		return
	}
	per := float64(d.Nanoseconds()) / float64(nnz)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.ns[edge]; ok {
		c.ns[edge] = 0.5*prev + 0.5*per
	} else {
		c.ns[edge] = per
	}
}

// Estimate returns the edge's measured average ns per non-zero, or 0
// for an edge this workbench never took.
func (c *ConvCosts) Estimate(edge string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns[edge]
}

// Snapshot copies the measured record.
func (c *ConvCosts) Snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.ns))
	for k, v := range c.ns {
		out[k] = v
	}
	return out
}

// Costs returns the workbench's conversion cost record.
func (wb *Workbench) Costs() *ConvCosts { return wb.costs }

// LevelSignature returns a format's declared level signature for one
// tensor order, or false for formats without a level view (fCOO's
// segmented flags do not decompose into per-mode levels).
func LevelSignature(f roofline.Format, order int, blockBits uint8) (levels.Signature, bool) {
	switch f {
	case roofline.COO:
		return levels.COOSig(order), true
	case roofline.HiCOO:
		return levels.HiCOOSig(order, blockBits), true
	case roofline.CSF:
		return levels.CSFSig(order), true
	case roofline.BCSF:
		return levels.BCSFSig(order, blockBits), true
	}
	return levels.Signature{}, false
}

func moKey(modeOrder []int) string { return fmt.Sprint(modeOrder) }

// CSF returns the workbench's CSF tree for one mode order, building and
// caching it on first use. site labels the conversion span's operand so
// distinct call sites (Ttv's leaf-ordered tree, Mttkrp's root-ordered
// tree, a generic cell's hierarchy) stay distinct trace lanes.
func (wb *Workbench) CSF(modeOrder []int, site string) (*csf.CSF, error) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.csfLocked(modeOrder, site)
}

func (wb *Workbench) csfLocked(modeOrder []int, site string) (*csf.CSF, error) {
	key := moKey(modeOrder)
	if c, ok := wb.csfs[key]; ok {
		return c, nil
	}
	sp := obs.Begin(EdgeCSFFromCOO, site, obs.PhaseConvert, -1)
	start := time.Now()
	c, err := csf.FromCOO(wb.sortedLocked(modeOrder), modeOrder)
	sp.End()
	if err != nil {
		return nil, err
	}
	wb.costs.Observe(EdgeCSFFromCOO, wb.X.NNZ(), time.Since(start))
	wb.csfs[key] = c
	return c, nil
}

// Hier returns the hierarchy of format f over the given mode order,
// built on first use and cached: CSF wraps the workbench's CSF tree of
// that order, bCSF splits the wrap's root, and COO and HiCOO are built
// from the sorted view.
func (wb *Workbench) Hier(f roofline.Format, modeOrder []int, site string) (*levels.Hierarchy, error) {
	sig, ok := LevelSignature(f, wb.X.Order(), wb.cfg.BlockBits)
	if !ok {
		return nil, fmt.Errorf("kernelreg: format %s has no level view", f)
	}
	wb.mu.Lock()
	defer wb.mu.Unlock()
	key := f.String() + moKey(modeOrder)
	if h, ok := wb.hiers[key]; ok {
		return h, nil
	}
	var h *levels.Hierarchy
	var err error
	switch f {
	case roofline.CSF:
		h, err = wb.hierViaCSF(modeOrder, site, 0)
	case roofline.BCSF:
		h, err = wb.hierViaCSF(modeOrder, site, wb.cfg.BlockBits)
	default:
		h, err = wb.buildHier(sig, modeOrder, EdgeBuild+":"+f.String(), site)
	}
	if err != nil {
		return nil, err
	}
	wb.hiers[key] = h
	return h, nil
}

// buildHier executes the direct COO→hierarchy edge under an observed
// conversion span.
func (wb *Workbench) buildHier(sig levels.Signature, modeOrder []int, edge, site string) (*levels.Hierarchy, error) {
	sp := obs.Begin(edge, site, obs.PhaseConvert, -1)
	start := time.Now()
	h, err := levels.Build(wb.sortedLocked(modeOrder), sig, modeOrder)
	sp.End()
	if err != nil {
		return nil, err
	}
	wb.costs.Observe(edge, wb.X.NNZ(), time.Since(start))
	return h, nil
}

// hierViaCSF wraps the workbench's CSF tree of modeOrder as a hierarchy
// and, when bits > 0, splits its root into a coarse blocked level under
// an observed span. Every level below the root stays the tree's own.
func (wb *Workbench) hierViaCSF(modeOrder []int, site string, bits uint8) (*levels.Hierarchy, error) {
	c, err := wb.csfLocked(modeOrder, site)
	if err != nil {
		return nil, err
	}
	h := levels.FromCSF(c)
	if bits == 0 {
		return h, nil
	}
	sp := obs.Begin(EdgeBlockRoot, site, obs.PhaseConvert, -1)
	start := time.Now()
	h, err = levels.BlockRoot(h, bits)
	sp.End()
	if err != nil {
		return nil, err
	}
	wb.costs.Observe(EdgeBlockRoot, wb.X.NNZ(), time.Since(start))
	return h, nil
}

// convSites is the static table of (span label, operand) pairs the
// registry's conversion call sites emit, pinned by the obs-label lint:
// two sites sharing a (label, operand) pair would merge into one trace
// lane and one cost sample stream.
var convSites = [][2]string{
	{EdgeCSFFromCOO, "Ttv-leaf"},
	{EdgeCSFFromCOO, "Mttkrp-root"},
	{"fcoo.FromCOO", "Ttv"},
	{"fcoo.FromCOOMttkrp", "Mttkrp"},
	{"hicoo.FromCOO", "X"},
	{"hicoo.FromCOO", "Y"},
}
