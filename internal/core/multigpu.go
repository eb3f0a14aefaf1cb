package core

import (
	"fmt"
	"sync"

	"repro/internal/gpusim"
	"repro/internal/tensor"
)

// Multi-GPU execution (§7 lists "multiple GPUs" among the suite's next
// platforms). The data-parallel scheme mirrors what a multi-GPU PASTA
// would do over NVLink-attached devices: shard the non-zeros (or fibers)
// across devices, run the single-GPU kernel per shard concurrently, and
// reduce any shared outputs on the host.

// shardDevices splits [0, n) into one contiguous range per device, runs
// launch(d, lo, hi) for every device concurrently (empty ranges
// included, so operand checks still run), and returns the error of the
// lowest-numbered device that failed.
func shardDevices(devs []*gpusim.Device, n int, launch func(d, lo, hi int) error) error {
	nd := len(devs)
	if nd == 0 {
		return fmt.Errorf("core: ExecuteMultiGPU needs at least one device")
	}
	errs := make([]error, nd)
	var wg sync.WaitGroup
	wg.Add(nd)
	for d := 0; d < nd; d++ {
		go func(d int) {
			defer wg.Done()
			errs[d] = launch(d, d*n/nd, (d+1)*n/nd)
		}(d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ExecuteMultiGPU runs the COO Ttv kernel across several devices by
// sharding fibers: each device runs the single-GPU launch on its fiber
// range, and fiber outputs are disjoint, so no reduction is needed.
func (p *TtvPlan) ExecuteMultiGPU(devs []*gpusim.Device, v tensor.Vector) (*tensor.COO, error) {
	return planOut(p.Out, shardDevices(devs, p.NumFibers(), func(d, lo, hi int) error {
		return p.k.ttvGPU(devs[d], lo, hi, v)
	}))
}

// ExecuteMultiGPU runs the COO Mttkrp kernel across several devices by
// sharding non-zeros. Each device runs the single-GPU launch on its range
// into a private copy of Ã (device-local memory in a real system), and
// the copies are reduced on the host afterwards — the standard
// replicate-and-reduce scheme for multi-GPU MTTKRP.
func (p *MttkrpPlan) ExecuteMultiGPU(devs []*gpusim.Device, mats []*tensor.Matrix) (*tensor.Matrix, error) {
	if err := p.checkMats(mats); err != nil {
		return nil, err
	}
	priv := make([]*tensor.Matrix, len(devs))
	for d := range priv {
		priv[d] = tensor.NewMatrix(p.Out.Rows, p.Out.Cols)
	}
	if err := shardDevices(devs, p.X.NNZ(), func(d, lo, hi int) error {
		return p.k.launchGPU(devs[d], mats, priv[d].Data, lo, hi)
	}); err != nil {
		return nil, err
	}

	// Host-side reduction of the device-private outputs.
	p.Out.Zero()
	for d := range priv {
		src := priv[d].Data
		dst := p.Out.Data
		for i := range dst {
			dst[i] += src[i]
		}
	}
	return p.Out, nil
}
