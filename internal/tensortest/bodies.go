package tensortest

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/tensor"
)

// BodySides returns the values of cpu.AVX2 a test compares the kernels
// under: false (the Go loops, the oracle), and true where the host has the
// assembly bodies.
func BodySides() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// WithAVX2 runs f with cpu.AVX2 set to on and restores it afterwards.
func WithAVX2(on bool, f func()) {
	defer func(was bool) { cpu.AVX2 = was }(cpu.AVX2)
	cpu.AVX2 = on
	f()
}

// Body is the contract of an assembly body and its Go twin (DESIGN.md,
// "Assembly bodies"), as CheckBody holds them to it on every side of
// BodySides.
type Body struct {
	// Cases must give the oracle's output bit for bit.
	Cases []BodyCase
	// Corruptions each hold an index, pointer or output size out of
	// range: Run must panic with the same runtime error on every side,
	// after the same writes (the oracle's, when it is set), none of them
	// past Size, and not before its first write.
	Corruptions []BodyCase
	// Allocs are runs that must allocate nothing.
	Allocs map[string]func() error
}

// BodyCase is one run of a body over an output of Size values, each of
// which starts at Fill.
type BodyCase struct {
	Name string
	Size int
	Fill tensor.Value
	// Oracle writes what Run must write: the textbook loop.
	Oracle func(out []tensor.Value)
	Run    func(out []tensor.Value)
	// Units, when set, is the pointer of the units (non-zeros, fibers,
	// nodes) Run covers, unit u holding [Units[u], Units[u+1]): they must
	// take more than one call (cpu.Cut), or the case shows no resume.
	Units []int64
}

// guard is the number of values behind a corrupted case's output that
// no side may write.
const guard = 5

// CheckBody runs the contract of b: the Float32bits identity of every
// case, the panic parity of every corruption and the allocation pin.
func CheckBody(t *testing.T, b Body) {
	t.Helper()
	for _, c := range b.Cases {
		if n := len(c.Units) - 1; n > 0 && cpu.Cut(c.Units, 0, n) == n {
			t.Fatalf("%s: its %d non-zeros fit in one call", c.Name, c.Units[n]-c.Units[0])
		}
		want := filled(c.Size, c.Fill)
		c.Oracle(want)
		for _, asm := range BodySides() {
			label := fmt.Sprintf("%s asm %v", c.Name, asm)
			got := filled(c.Size, c.Fill)
			if err := runs(asm, c.Run, got); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameBits(t, label, got, want)
		}
	}
	for _, c := range b.Corruptions {
		checkPanic(t, c)
	}
	if Race {
		t.Log("allocation counts are meaningless under the race detector")
		return
	}
	for name, run := range b.Allocs {
		for _, asm := range BodySides() {
			var n float64
			var err error
			WithAVX2(asm, func() { n = testing.AllocsPerRun(10, func() { err = run() }) })
			if err != nil {
				t.Fatalf("%s asm %v: %v", name, asm, err)
			}
			if n != 0 {
				t.Errorf("%s asm %v allocates %v times per call, want 0", name, asm, n)
			}
		}
	}
}

// checkPanic runs corruption c on every side into an output with a guard
// tail behind its capacity.
func checkPanic(t *testing.T, c BodyCase) {
	t.Helper()
	var want []tensor.Value
	if c.Oracle != nil {
		want = filled(c.Size, c.Fill)
		c.Oracle(want)
	}
	var msg string
	for _, asm := range BodySides() {
		label := fmt.Sprintf("%s asm %v", c.Name, asm)
		buf := filled(c.Size+guard, -7)
		out := buf[:c.Size:c.Size]
		for i := range out {
			out[i] = c.Fill
		}
		err, ok := runs(asm, c.Run, out).(runtime.Error)
		if !ok {
			t.Fatalf("%s: no runtime error panic", label)
		}
		if want == nil {
			want = out // the Go loop's writes
		}
		if !wrote(want, c.Fill) {
			t.Fatalf("%s: the panic comes before any write, so the writes show nothing", label)
		}
		sameBits(t, label, out, want)
		for i, v := range buf[c.Size:] {
			if v != -7 {
				t.Fatalf("%s: guard value %d past the output is %v", label, i, v)
			}
		}
		if msg == "" {
			msg = err.Error()
		} else if err.Error() != msg {
			t.Fatalf("%s: the Go loop panics with %q, the assembly body with %q", c.Name, msg, err.Error())
		}
	}
}

// runs runs run on out with cpu.AVX2 set to asm and returns what it
// panics with.
func runs(asm bool, run func([]tensor.Value), out []tensor.Value) (err any) {
	defer func() { err = recover() }()
	WithAVX2(asm, func() { run(out) })
	return nil
}

func filled(n int, v tensor.Value) []tensor.Value {
	out := make([]tensor.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func wrote(out []tensor.Value, fill tensor.Value) bool {
	for _, v := range out {
		if math.Float32bits(v) != math.Float32bits(fill) {
			return true
		}
	}
	return false
}

func sameBits(tb testing.TB, label string, got, want []tensor.Value) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			tb.Fatalf("%s: element %d is %v (%#x), the oracle gives %v (%#x)", label, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// BenchSides times run as two sub-benchmarks, name/go on the Go loops
// and name/avx2 on the assembly bodies (skipped without AVX2), each after
// one untimed call, and reports allocations and nanoseconds per unit, for
// units units per run. Run it with -cpu 1.
func BenchSides(b *testing.B, name string, units int, unit string, run func() error) {
	metric := "ns/" + unit // built here: a concatenation in the timed run allocates
	for _, side := range []struct {
		name string
		asm  bool
	}{{"go", false}, {"avx2", true}} {
		sub := side.name
		if name != "" {
			sub = name + "/" + sub
		}
		b.Run(sub, func(b *testing.B) {
			if side.asm && !cpu.AVX2 {
				b.Skip("no AVX2 on this host")
			}
			WithAVX2(side.asm, func() {
				// One untimed call first: it warms what a plan pools
				// (level scratch, workspaces), which a timed first call
				// would report as allocations at -benchtime 1x.
				if err := run(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units), metric)
		})
	}
}
