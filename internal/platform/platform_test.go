package platform

import "testing"

func TestTable4Entries(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("want 4 platforms, got %d", len(all))
	}
	names := []string{"Bluesky", "Wingtip", "DGX-1P", "DGX-1V"}
	for i, p := range all {
		if p.Name != names[i] {
			t.Fatalf("platform %d is %s, want %s", i, p.Name, names[i])
		}
	}
	// Table 4 values.
	if Bluesky.Cores != 24 || Bluesky.Sockets != 2 || Bluesky.FreqGHz != 2.60 {
		t.Fatal("Bluesky parameters wrong")
	}
	if Wingtip.Cores != 56 || Wingtip.Sockets != 4 || Wingtip.MemBWGBs != 273 {
		t.Fatal("Wingtip parameters wrong")
	}
	if DGX1P.Cores != 3584 || DGX1P.MemBWGBs != 732 || DGX1P.Microarch != "Pascal" {
		t.Fatal("DGX-1P parameters wrong")
	}
	if DGX1V.Cores != 5120 || DGX1V.MemBWGBs != 900 || DGX1V.LLCBytes != 6<<20 {
		t.Fatal("DGX-1V parameters wrong")
	}
}

func TestKinds(t *testing.T) {
	if Bluesky.Kind != CPU || Wingtip.Kind != CPU || DGX1P.Kind != GPU || DGX1V.Kind != GPU {
		t.Fatal("kinds wrong")
	}
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("Kind strings wrong")
	}
}

func TestEfficiencyDRAM(t *testing.T) {
	for _, p := range All() {
		e := p.ERTDRAMGBs / p.MemBWGBs
		if e <= 0 || e >= 1 {
			t.Fatalf("%s: ERT fraction %v out of (0,1)", p.Name, e)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Bluesky", "Wingtip", "DGX-1P", "DGX-1V"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ByName(%s) = %v, %v", name, p, err)
		}
	}
	for _, host := range []string{"host", "Host"} {
		p, err := ByName(host)
		if err != nil || p.Name != "host" {
			t.Fatalf("ByName(%s) failed: %v", host, err)
		}
	}
	if _, err := ByName("bluesky"); err == nil {
		t.Fatal("ByName is case-sensitive; lowercase should fail")
	}
}

func TestHostDefaults(t *testing.T) {
	h := Host()
	if h.Cores < 1 || h.Kind != CPU || h.Name != "host" {
		t.Fatalf("host = %+v", h)
	}
	if h.PeakSPGFLOPS <= 0 || h.ERTDRAMGBs <= 0 {
		t.Fatal("host placeholders must be positive")
	}
}

func TestString(t *testing.T) {
	s := Bluesky.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
