// Package platform holds the Table 4 machine descriptions of the paper's
// four evaluation platforms — two Intel NUMA CPUs (Bluesky, Wingtip) and
// two NVIDIA GPUs (DGX-1P with P100, DGX-1V with V100) — plus a Host
// pseudo-platform describing the machine the suite actually runs on.
// The analytic performance model (internal/perfmodel) and the Roofline
// plots (internal/roofline) consume these parameters.
package platform

import (
	"fmt"
	"runtime"
)

// Kind distinguishes CPU and GPU platforms.
type Kind int

const (
	// CPU marks multicore CPU platforms (OpenMP kernels).
	CPU Kind = iota
	// GPU marks CUDA GPU platforms.
	GPU
)

func (k Kind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// Platform captures the Table 4 parameters of one machine plus the
// ERT-calibrated obtainable bandwidths used by the Roofline model.
type Platform struct {
	Name      string
	Kind      Kind
	Processor string
	Microarch string
	FreqGHz   float64
	// Cores is the physical core (CUDA core) count; Sockets is the number
	// of NUMA nodes for CPUs (1 for GPUs).
	Cores   int
	Sockets int
	// PeakSPGFLOPS is the theoretical peak single-precision rate.
	PeakSPGFLOPS float64
	// LLCBytes is the last-level cache size.
	LLCBytes int64
	// MemBytes is main/global memory size.
	MemBytes int64
	MemType  string
	// MemBWGBs is the theoretical peak memory bandwidth (GB/s).
	MemBWGBs float64
	// ERTDRAMGBs is the obtainable DRAM/HBM bandwidth measured by
	// ERT-style micro-benchmarks (the "ERT-DRAM" line of Figure 3),
	// calibrated to the fractions such tools typically report.
	ERTDRAMGBs float64
	// ERTLLCGBs is the obtainable last-level-cache bandwidth (the
	// "ERT-LLC" line of Figure 3).
	ERTLLCGBs float64
	Compiler  string
}

func (p *Platform) String() string {
	return fmt.Sprintf("%s (%s, %s, %.1f GFLOPS peak, %.0f GB/s DRAM)",
		p.Name, p.Kind, p.Processor, p.PeakSPGFLOPS, p.MemBWGBs)
}

const (
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// Bluesky is the two-socket Skylake platform of Table 4.
var Bluesky = Platform{
	Name: "Bluesky", Kind: CPU,
	Processor: "Intel Xeon Gold 6126", Microarch: "Skylake",
	FreqGHz: 2.60, Cores: 24, Sockets: 2,
	PeakSPGFLOPS: 1000, LLCBytes: 19 * mb,
	MemBytes: 196 * gb, MemType: "DDR4", MemBWGBs: 256,
	ERTDRAMGBs: 205, ERTLLCGBs: 970,
	Compiler: "gcc 7.1.0",
}

// Wingtip is the four-socket Haswell platform of Table 4.
var Wingtip = Platform{
	Name: "Wingtip", Kind: CPU,
	Processor: "Intel Xeon E7-4850 v3", Microarch: "Haswell",
	FreqGHz: 2.20, Cores: 56, Sockets: 4,
	PeakSPGFLOPS: 2000, LLCBytes: 35 * mb,
	MemBytes: 2114 * gb, MemType: "DDR4", MemBWGBs: 273,
	ERTDRAMGBs: 198, ERTLLCGBs: 1450,
	Compiler: "gcc 5.5.0",
}

// DGX1P is the Pascal P100 platform of Table 4.
var DGX1P = Platform{
	Name: "DGX-1P", Kind: GPU,
	Processor: "NVIDIA Tesla P100", Microarch: "Pascal",
	FreqGHz: 1.48, Cores: 3584, Sockets: 1,
	PeakSPGFLOPS: 10600, LLCBytes: 3 * mb,
	MemBytes: 16 * gb, MemType: "HBM2", MemBWGBs: 732,
	ERTDRAMGBs: 549, ERTLLCGBs: 2000,
	Compiler: "CUDA Toolkit 9.1",
}

// DGX1V is the Volta V100 platform of Table 4.
var DGX1V = Platform{
	Name: "DGX-1V", Kind: GPU,
	Processor: "NVIDIA Tesla V100", Microarch: "Volta",
	FreqGHz: 1.53, Cores: 5120, Sockets: 1,
	PeakSPGFLOPS: 14900, LLCBytes: 6 * mb,
	MemBytes: 16 * gb, MemType: "HBM2", MemBWGBs: 900,
	ERTDRAMGBs: 792, ERTLLCGBs: 3200,
	Compiler: "CUDA Toolkit 9.0",
}

// All returns the paper's four platforms in Table 4 order.
func All() []*Platform {
	return []*Platform{&Bluesky, &Wingtip, &DGX1P, &DGX1V}
}

// ByName resolves a platform by (case-sensitive) name, including "host".
func ByName(name string) (*Platform, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	if name == "host" || name == "Host" {
		h := Host()
		return &h, nil
	}
	return nil, fmt.Errorf("platform: unknown platform %q (have Bluesky, Wingtip, DGX-1P, DGX-1V, host)", name)
}

// Host describes the machine the suite is running on. Peak and bandwidth
// are placeholders until calibrated by the ERT micro-benchmarks
// (roofline.MeasureHost overwrites them with measured values).
func Host() Platform {
	return Platform{
		Name: "host", Kind: CPU,
		Processor: runtime.GOARCH, Microarch: runtime.GOOS,
		Cores: runtime.NumCPU(), Sockets: 1,
		// Conservative defaults; MeasureHost replaces them.
		PeakSPGFLOPS: 50 * float64(runtime.NumCPU()),
		LLCBytes:     32 * mb,
		MemBytes:     8 * gb, MemType: "unknown",
		MemBWGBs: 20, ERTDRAMGBs: 16, ERTLLCGBs: 80,
		Compiler: runtime.Version(),
	}
}
