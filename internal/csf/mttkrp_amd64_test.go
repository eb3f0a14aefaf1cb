package csf

import (
	"testing"
	"unsafe"
)

// TestTreeBodyLayout pins the field offsets mttkrp_amd64.s reads
// treeBody by.
func TestTreeBodyLayout(t *testing.T) {
	var b treeBody
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"kid", unsafe.Offsetof(b.kid), 0},
		{"vals", unsafe.Offsetof(b.vals), 24},
		{"ku", unsafe.Offsetof(b.ku), 48},
		{"kuRows", unsafe.Offsetof(b.kuRows), 72},
		{"fptr", unsafe.Offsetof(b.fptr), 80},
		{"fid", unsafe.Offsetof(b.fid), 104},
		{"fu", unsafe.Offsetof(b.fu), 128},
		{"fuRows", unsafe.Offsetof(b.fuRows), 152},
	} {
		if c.got != c.want {
			t.Errorf("treeBody.%s at %d, the assembly reads %d", c.name, c.got, c.want)
		}
	}
}
