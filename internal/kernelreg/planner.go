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

// Conversion-cost planning. Format conversions (COO→CSF, COO→hierarchy,
// CSF→blocked-CSF) are the untimed Prepare work the obs PhaseConvert
// spans measure; the planner turns those measurements into a per-dataset
// cost table and picks the cheapest path to the hierarchy a generic
// kernel asks for — replacing the hardcoded FromCOO call sites. The
// table lives on the Workbench, which the daemon caches per dataset, so
// costs learned by one request steer the next.

// Conversion edges. Each edge name doubles as its obs span label, so
// the cost table and the trace read the same vocabulary.
const (
	// EdgeCSFFromCOO sorts COO (or takes the workbench's sorted view) and
	// compresses it into a CSF tree.
	EdgeCSFFromCOO = "csf.FromCOO"
	// EdgeBuild is a direct COO→hierarchy materialization; the full span
	// label carries the format, e.g. "levels.Build:bCSF".
	EdgeBuild = "levels.Build"
	// EdgeBlockRoot splits a resident CSF-shaped hierarchy's root into a
	// coarse blocked level (one linear scan).
	EdgeBlockRoot = "levels.BlockRoot"
)

// defaultCostPriors seeds the table before any measurement. Units are
// ns per non-zero; only ratios matter for planning. The values are the
// per-layer rows of the traced benchmark (`bench/run.sh --trace 1`,
// EXPERIMENTS.md "Format conversion") on the three workloads: every
// edge that finds no sorted view of X resident pays the keyed radix
// sort plus the gather (~45), then its assembly — the shared linear
// fiber-tree pass for CSF (14-22), key extraction and an order check
// on top of it for a direct hierarchy build (28-42 for bCSF; COO
// compresses one level only, HiCOO has twice the levels and must sort
// its block keys again) — while the root split is a scan over root
// nodes only (0.15-0.66). So a cold tree format goes via CSF, which
// is also what a table holding measurements picks.
var defaultCostPriors = map[string]float64{
	EdgeCSFFromCOO:       60,
	EdgeBuild + ":COO":   70,
	EdgeBuild + ":HiCOO": 130,
	EdgeBuild + ":CSF":   75,
	EdgeBuild + ":bCSF":  80,
	EdgeBlockRoot:        0.5,
}

// ConvCosts is the per-dataset conversion cost table: an exponentially
// weighted moving average of ns-per-nonzero per edge, updated from
// measured PhaseConvert durations.
type ConvCosts struct {
	mu sync.Mutex
	ns map[string]float64
}

// NewConvCosts returns a table holding only the static priors.
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

// Set pins an edge's cost directly (tests inject synthetic tables).
func (c *ConvCosts) Set(edge string, nsPerNNZ float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ns[edge] = nsPerNNZ
}

// Estimate returns the edge's ns-per-nonzero: the measured average when
// one exists, else the static prior.
func (c *ConvCosts) Estimate(edge string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.ns[edge]; ok {
		return v
	}
	if v, ok := defaultCostPriors[edge]; ok {
		return v
	}
	return defaultCostPriors[EdgeCSFFromCOO]
}

// Measured reports whether the edge has at least one observation.
func (c *ConvCosts) Measured(edge string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.ns[edge]
	return ok
}

// Snapshot copies the measured table (diagnostics).
func (c *ConvCosts) Snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.ns))
	for k, v := range c.ns {
		out[k] = v
	}
	return out
}

// Costs returns the workbench's conversion cost table.
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
// tree, planner via-CSF steps) stay distinct trace lanes; the measured
// duration feeds the cost table.
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

// Hier returns a hierarchy of format f over the given mode order,
// choosing the cheapest conversion path by the cost table and caching
// the result. The returned plan string names the chosen path (surfaced
// through Instance.Plan into pastabench rows and pastad's /run
// response).
func (wb *Workbench) Hier(f roofline.Format, modeOrder []int, site string) (*levels.Hierarchy, string, error) {
	sig, ok := LevelSignature(f, wb.X.Order(), wb.cfg.BlockBits)
	if !ok {
		return nil, "", fmt.Errorf("kernelreg: format %s has no level view", f)
	}
	wb.mu.Lock()
	defer wb.mu.Unlock()
	key := f.String() + moKey(modeOrder)
	if h, ok := wb.hiers[key]; ok {
		return h, "cached", nil
	}

	buildEdge := EdgeBuild + ":" + f.String()
	direct := wb.costs.Estimate(buildEdge)
	_, csfResident := wb.csfs[moKey(modeOrder)]

	var h *levels.Hierarchy
	var plan string
	var err error
	switch f {
	case roofline.CSF:
		// Wrapping a CSF tree is free, so a resident tree always wins;
		// cold, FromCOO+wrap competes with the direct build on cost.
		viaCost := wb.costs.Estimate(EdgeCSFFromCOO)
		switch {
		case csfResident:
			h, err = wb.hierViaCSF(f, modeOrder, site, 0)
			plan = "reuse-csf"
		case viaCost < direct:
			h, err = wb.hierViaCSF(f, modeOrder, site, 0)
			plan = "via-csf:" + EdgeCSFFromCOO
		default:
			h, err = wb.buildHier(sig, modeOrder, buildEdge, site)
			plan = "direct:" + buildEdge
		}
	case roofline.BCSF:
		// Splitting a resident tree's root is one linear scan; cold, the
		// two-step FromCOO+BlockRoot competes with the direct build.
		split := wb.costs.Estimate(EdgeBlockRoot)
		viaCost := wb.costs.Estimate(EdgeCSFFromCOO) + split
		switch {
		case csfResident && split < direct:
			h, err = wb.hierViaCSF(f, modeOrder, site, wb.cfg.BlockBits)
			plan = "reuse-csf:" + EdgeBlockRoot
		case !csfResident && viaCost < direct:
			h, err = wb.hierViaCSF(f, modeOrder, site, wb.cfg.BlockBits)
			plan = "via-csf:" + EdgeCSFFromCOO + "+" + EdgeBlockRoot
		default:
			h, err = wb.buildHier(sig, modeOrder, buildEdge, site)
			plan = "direct:" + buildEdge
		}
	default:
		// COO and HiCOO level views have no CSF shortcut.
		h, err = wb.buildHier(sig, modeOrder, buildEdge, site)
		plan = "direct:" + buildEdge
	}
	if err != nil {
		return nil, "", err
	}
	wb.hiers[key] = h
	return h, plan, nil
}

// buildHier executes the direct COO→hierarchy edge under an observed
// conversion span and feeds the cost table.
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

// hierViaCSF executes the via-CSF path: obtain (or reuse) the CSF tree,
// wrap it as a hierarchy, and — when bits > 0 — split its root into a
// coarse blocked level under an observed span.
func (wb *Workbench) hierViaCSF(f roofline.Format, modeOrder []int, site string, bits uint8) (*levels.Hierarchy, error) {
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
