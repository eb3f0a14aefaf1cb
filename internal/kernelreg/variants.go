package kernelreg

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fcoo"
	"repro/internal/gpusim"
	"repro/internal/levels"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// tsScalar is the Ts multiplicand: near-1 so repeated timed executions
// cannot drift the output magnitude.
const tsScalar = 1.000001

// tableModel is the default Roofline hook: the Table 1 work and traffic
// formulas for the variant's kernel and format.
func tableModel(k roofline.Kernel, f roofline.Format) func(roofline.Params) (int64, int64) {
	return func(p roofline.Params) (int64, int64) {
		return roofline.Work(k, p), roofline.Bytes(k, f, p)
	}
}

// handOverride pins one hand-tuned implementation to a grid cell; cells
// with no override are filled by the generic level-iterator kernels
// (see grid.go).
type handOverride struct {
	caps Caps
	prep func(wb *Workbench, mode int, b Backend) (*Instance, error)
}

// handTuned is the override table the grid generator consults: the
// suite's tuned COO/HiCOO paths on both backends, the multi-device
// partitioned reductions, CSF's tree kernels, and F-COO's segmented GPU
// kernels. Everything the old hand-enumerated init registered is here;
// the agreement tests pin the generated generics against these.
func handTuned() map[regKey]handOverride {
	hand := make(map[regKey]handOverride)
	add := func(k roofline.Kernel, f roofline.Format, b Backend, caps Caps,
		prep func(wb *Workbench, mode int, b Backend) (*Instance, error)) {
		hand[regKey{k, f, b}] = handOverride{caps, prep}
	}
	for _, b := range []Backend{OMP, GPU} {
		add(roofline.Tew, roofline.COO, b, Caps{}, prepTewCOO)
		add(roofline.Tew, roofline.HiCOO, b, Caps{}, prepTewHiCOO)
		add(roofline.Ts, roofline.COO, b, Caps{}, prepTsCOO)
		add(roofline.Ts, roofline.HiCOO, b, Caps{}, prepTsHiCOO)
		add(roofline.Ttv, roofline.COO, b, Caps{ModeDependent: true}, prepTtvCOO)
		add(roofline.Ttv, roofline.HiCOO, b, Caps{ModeDependent: true}, prepTtvHiCOO)
		add(roofline.Ttm, roofline.COO, b, Caps{ModeDependent: true, NeedsFactors: true}, prepTtmCOO)
		add(roofline.Ttm, roofline.HiCOO, b, Caps{ModeDependent: true, NeedsFactors: true}, prepTtmHiCOO)
		add(roofline.Mttkrp, roofline.COO, b, Caps{ModeDependent: true, NeedsFactors: true}, prepMttkrpCOO)
		add(roofline.Mttkrp, roofline.HiCOO, b, Caps{ModeDependent: true, NeedsFactors: true}, prepMttkrpHiCOO)
	}
	// Multi-device partitioned paths exist for the reduction kernels that
	// have them in core.
	add(roofline.Ttv, roofline.COO, MultiGPU,
		Caps{ModeDependent: true}, prepTtvCOO)
	add(roofline.Mttkrp, roofline.COO, MultiGPU,
		Caps{ModeDependent: true, NeedsFactors: true}, prepMttkrpCOO)
	// CSF: the mode of interest is placed at the tree position its kernel
	// wants (leaf for Ttv, root for Mttkrp), and the cell is the generic
	// instance on the tree's level view: core's fiber plan on the leaf
	// level, csf's tree plan from the root. They stay overrides so the
	// tree is the workbench's cached CSF and the cells keep their names.
	add(roofline.Ttv, roofline.CSF, OMP,
		Caps{ModeDependent: true}, prepCSF(roofline.Ttv, "Ttv-leaf"))
	add(roofline.Mttkrp, roofline.CSF, OMP,
		Caps{ModeDependent: true, NeedsFactors: true}, prepCSF(roofline.Mttkrp, "Mttkrp-root"))
	// F-COO: segmented-reduction GPU kernels only.
	add(roofline.Ttv, roofline.FCOO, GPU,
		Caps{ModeDependent: true, SerialRef: true}, prepTtvFCOO)
	add(roofline.Mttkrp, roofline.FCOO, GPU,
		Caps{ModeDependent: true, NeedsFactors: true, SerialRef: true}, prepMttkrpFCOO)
	return hand
}

func badBackend(what string, b Backend) error {
	return fmt.Errorf("kernelreg: %s has no %s path", what, b)
}

// rungs are the executable paths of one prepared core plan, with the
// plan's operands already bound. The core plans are uniform — a
// plan-owned output refilled by every execution, a sequential path and
// one path per backend (elementPlan, operandPlan) — so one helper turns
// any of them into an Instance.
type rungs struct {
	flops int64
	out   any // the plan-owned output object
	seq   func() error
	omp   func(parallel.Options) error
	gpu   func(*gpusim.Device) error
	// multi is the multi-device path, nil where core has none.
	multi func([]*gpusim.Device) error
	// owner marks an omp path that is owner-computes, one writer per
	// output element: the Ttv and Ttm fiber plans and COO and HiCOO
	// Mttkrp. Its Instance reports the strategy owner.
	owner bool
}

// instance assembles the Instance of a core plan on backend b.
func (wb *Workbench) instance(site string, b Backend, r rungs) (*Instance, error) {
	inst := &Instance{Flops: r.flops}
	inst.out = func() any { return r.out }
	inst.Check = func() error { return checkFinite(r.out) }
	inst.Serial = func(context.Context) error { return r.seq() }
	switch {
	case b == OMP:
		inst.Run = func(ctx context.Context) error { return r.omp(wb.Opt(ctx)) }
		if r.owner {
			inst.Strategy = parallel.Owner.String
		}
	case b == GPU:
		inst.Run = wb.onDevice(func() error { return r.gpu(wb.Device()) })
	case b == MultiGPU && r.multi != nil:
		inst.Run = wb.onDevices(func() error { return r.multi(wb.Devices()) })
	default:
		return nil, badBackend(site, b)
	}
	return inst, nil
}

// elementPlan is the Execute* shape of the Tew and Ts plans: no operand
// beyond the prepared ones, no failure mode.
type elementPlan[O any] interface {
	ExecuteSeq() O
	ExecuteOMP(parallel.Options) O
	ExecuteGPU(*gpusim.Device) O
	FlopCount() int64
}

func elementRungs[P elementPlan[O], O any](p P, out any) rungs {
	return rungs{
		flops: p.FlopCount(), out: out,
		seq: func() error { p.ExecuteSeq(); return nil },
		omp: func(o parallel.Options) error { p.ExecuteOMP(o); return nil },
		gpu: func(d *gpusim.Device) error { p.ExecuteGPU(d); return nil },
	}
}

// operandPlan is the Execute* shape of the Ttv, Ttm and Mttkrp plans: one
// dense operand A per execution (vector, matrix, factor list). Their omp
// paths are owner-computes, except tree Mttkrp's (generic.go).
type operandPlan[A, O any] interface {
	ExecuteSeq(A) (O, error)
	ExecuteOMP(A, parallel.Options) (O, error)
	FlopCount() int64
}

func operandRungs[P operandPlan[A, O], A, O any](p P, a A, out any) rungs {
	return rungs{
		flops: p.FlopCount(), out: out, owner: true,
		seq: func() error { _, err := p.ExecuteSeq(a); return err },
		omp: func(o parallel.Options) error { _, err := p.ExecuteOMP(a, o); return err },
	}
}

// deviceRungs adds the single-device rung of the core COO/HiCOO plans.
func deviceRungs[P interface {
	operandPlan[A, O]
	ExecuteGPU(*gpusim.Device, A) (O, error)
}, A, O any](p P, a A, out any) rungs {
	r := operandRungs(p, a, out)
	r.gpu = func(d *gpusim.Device) error { _, err := p.ExecuteGPU(d, a); return err }
	return r
}

func prepTewCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTew(wb.X, wb.Y(), core.Add)
	if err != nil {
		return nil, err
	}
	return wb.instance("Tew/COO", b, elementRungs(p, p.Out))
}

func prepTewHiCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTewHiCOO(wb.HX(), wb.HY(), core.Add)
	if err != nil {
		return nil, err
	}
	return wb.instance("Tew/HiCOO", b, elementRungs(p, p.Out))
}

func prepTsCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTs(wb.X, tsScalar, core.Mul)
	if err != nil {
		return nil, err
	}
	return wb.instance("Ts/COO", b, elementRungs(p, p.Out))
}

func prepTsHiCOO(wb *Workbench, _ int, b Backend) (*Instance, error) {
	p, err := core.PrepareTsHiCOO(wb.HX(), tsScalar, core.Mul)
	if err != nil {
		return nil, err
	}
	return wb.instance("Ts/HiCOO", b, elementRungs(p, p.Out))
}

func prepTtvCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtv(wb.FiberSorted(mode), mode)
	if err != nil {
		return nil, err
	}
	v := wb.Vec(mode)
	r := deviceRungs(p, v, p.Out)
	r.multi = func(ds []*gpusim.Device) error { _, err := p.ExecuteMultiGPU(ds, v); return err }
	return wb.instance("Ttv/COO", b, r)
}

func prepTtvHiCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtvHiCOO(wb.X, mode, wb.BlockBits())
	if err != nil {
		return nil, err
	}
	return wb.instance("Ttv/HiCOO", b, deviceRungs(p, wb.Vec(mode), p.Out))
}

func prepTtmCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtm(wb.FiberSorted(mode), mode, wb.R())
	if err != nil {
		return nil, err
	}
	return wb.instance("Ttm/COO", b, deviceRungs(p, wb.TtmMat(mode), p.Out))
}

func prepTtmHiCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareTtmHiCOO(wb.X, mode, wb.R(), wb.BlockBits())
	if err != nil {
		return nil, err
	}
	return wb.instance("Ttm/HiCOO", b, deviceRungs(p, wb.TtmMat(mode), p.Out))
}

func prepMttkrpCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareMttkrp(wb.X, mode, wb.R())
	if err != nil {
		return nil, err
	}
	mats := wb.Mats()
	r := deviceRungs(p, mats, p.Out)
	r.multi = func(ds []*gpusim.Device) error { _, err := p.ExecuteMultiGPU(ds, mats); return err }
	return wb.instance("Mttkrp/COO", b, r)
}

func prepMttkrpHiCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	p, err := core.PrepareMttkrpHiCOO(wb.HX(), mode, wb.R())
	if err != nil {
		return nil, err
	}
	return wb.instance("Mttkrp/HiCOO", b, deviceRungs(p, wb.Mats(), p.Out))
}

// tracked starts an instance for rungs that return their output object
// instead of refilling a plan-owned one — the kernels that genuinely
// produce a fresh output per call: fCOO's segmented scans and the ooc
// streams. Every rung must pass its result through keep,
// which records it as the current output when the rung succeeded — so
// Check and Output always see whichever rung wrote last. cur is the
// output before any rung has run.
func tracked(flops int64, cur any) (inst *Instance, keep func(out any, err error) error) {
	inst = &Instance{Flops: flops}
	inst.out = func() any { return cur }
	inst.Check = func() error { return checkFinite(cur) }
	return inst, func(out any, err error) error {
		if err == nil {
			cur = out
		}
		return err
	}
}

// serialRef starts the instance of a variant with no native serial path
// (Caps.SerialRef): a tracked instance whose Serial rung is the serial
// COO reference of kernel k in mode and whose Flops is that plan's
// Table 1 work. The caller supplies Run, routed through keep.
func serialRef(wb *Workbench, k roofline.Kernel, mode int) (inst *Instance, keep func(out any, err error) error, err error) {
	var flops int64
	var ref func() (any, error)
	switch k {
	case roofline.Ttv:
		p, err := core.PrepareTtv(wb.FiberSorted(mode), mode)
		if err != nil {
			return nil, nil, err
		}
		v := wb.Vec(mode)
		flops, ref = p.FlopCount(), func() (any, error) { return p.ExecuteSeq(v) }
	case roofline.Mttkrp:
		p, err := core.PrepareMttkrp(wb.X, mode, wb.R())
		if err != nil {
			return nil, nil, err
		}
		mats := wb.Mats()
		flops, ref = p.FlopCount(), func() (any, error) { return p.ExecuteSeq(mats) }
	default:
		return nil, nil, fmt.Errorf("kernelreg: no serial COO reference for %s", k)
	}
	inst, keep = tracked(flops, nil)
	inst.Serial = func(context.Context) error { return keep(ref()) }
	return inst, keep, nil
}

// prepCSF returns the CSF cell of kernel k: the workbench's cached tree
// with the mode where the kernel wants it (the leaf for Ttv's fibers; the
// root for Mttkrp, whose subtrees then own disjoint output rows), and on
// its level view the generic instance.
func prepCSF(k roofline.Kernel, label string) func(wb *Workbench, mode int, b Backend) (*Instance, error) {
	site := k.String() + "/CSF"
	return func(wb *Workbench, mode int, b Backend) (*Instance, error) {
		if b != OMP {
			return nil, badBackend(site, b)
		}
		// len(Dims): Order() is not inlined here and its symbol would shift core.
		c, err := wb.CSF(genericModeOrder(k, len(wb.X.Dims), mode), label)
		if err != nil {
			return nil, err
		}
		return genericInstance(wb, k, levels.FromCSF(c), mode, site)
	}
}

// prepTtvFCOO runs F-COO's segmented-reduction Ttv on the simulated GPU.
func prepTtvFCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	if b != GPU {
		return nil, badBackend("Ttv/fCOO", b)
	}
	csp := obs.Begin("fcoo.FromCOO", "Ttv", obs.PhaseConvert, -1)
	fc, err := fcoo.FromCOO(wb.FiberSorted(mode), mode, wb.SegSize())
	csp.End()
	if err != nil {
		return nil, err
	}
	inst, keep, err := serialRef(wb, roofline.Ttv, mode)
	if err != nil {
		return nil, err
	}
	v := wb.Vec(mode)
	inst.Run = wb.onDevice(func() error { return keep(fc.TtvGPU(wb.Device(), v)) })
	return inst, nil
}

// prepMttkrpFCOO runs F-COO's segmented Mttkrp on the simulated GPU.
func prepMttkrpFCOO(wb *Workbench, mode int, b Backend) (*Instance, error) {
	if b != GPU {
		return nil, badBackend("Mttkrp/fCOO", b)
	}
	csp := obs.Begin("fcoo.FromCOOMttkrp", "Mttkrp", obs.PhaseConvert, -1)
	fc, err := fcoo.FromCOOMttkrp(wb.Sorted(modeFirst(wb.X.Order(), mode)), mode, wb.SegSize())
	csp.End()
	if err != nil {
		return nil, err
	}
	inst, keep, err := serialRef(wb, roofline.Mttkrp, mode)
	if err != nil {
		return nil, err
	}
	mats := wb.Mats()
	inst.Run = wb.onDevice(func() error { return keep(fc.MttkrpGPU(wb.Device(), mats, wb.R())) })
	return inst, nil
}

// modeFirst is the mode permutation with mode outermost and the rest
// ascending — the order that makes mode the root of a tree format.
func modeFirst(order, mode int) []int {
	return append([]int{mode}, tensor.OtherModes(order, mode)...)
}
