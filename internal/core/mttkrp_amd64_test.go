package core

import (
	"testing"
	"unsafe"

	"repro/internal/tensor"
)

// TestMttkrpOperandLayout pins the field offsets mttkrp_amd64.s reads
// mttkrpOperand by, for both index widths.
func TestMttkrpOperandLayout(t *testing.T) {
	var a mttkrpOperand[tensor.Index]
	var b mttkrpOperand[uint8]
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"uint32 ind", unsafe.Offsetof(a.ind), 0},
		{"uint32 data", unsafe.Offsetof(a.data), 24},
		{"uint32 base", unsafe.Offsetof(a.base), 48},
		{"uint32 bind", unsafe.Offsetof(a.bind), 56},
		{"uint32 size", unsafe.Sizeof(a), 80},
		{"uint8 ind", unsafe.Offsetof(b.ind), 0},
		{"uint8 data", unsafe.Offsetof(b.data), 24},
		{"uint8 base", unsafe.Offsetof(b.base), 48},
		{"uint8 bind", unsafe.Offsetof(b.bind), 56},
		{"uint8 size", unsafe.Sizeof(b), 80},
	} {
		if c.got != c.want {
			t.Errorf("mttkrpOperand %s at %d, the assembly reads %d", c.name, c.got, c.want)
		}
	}
}
