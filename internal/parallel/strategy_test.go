package parallel

import "testing"

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		Auto:         "auto",
		Owner:        "owner",
		Atomic:       "atomic",
		Privatized:   "privatized",
		Strategy(99): "unknown",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestChooseHonorsExplicitRequest(t *testing.T) {
	sh := ReductionShape{OutElems: 100, Updates: 1000, Threads: 8}
	if got := Choose(Atomic, sh); got != Atomic {
		t.Errorf("explicit Atomic resolved to %v", got)
	}
	if got := Choose(Privatized, sh); got != Privatized {
		t.Errorf("explicit Privatized resolved to %v", got)
	}
	// The kernels that resolve a strategy have no owner decomposition:
	// Owner degrades to Atomic rather than handing them a strategy they
	// cannot run.
	if got := Choose(Owner, sh); got != Atomic {
		t.Errorf("explicit Owner resolved to %v, want Atomic", got)
	}
}

func TestChooseAuto(t *testing.T) {
	cases := []struct {
		name string
		sh   ReductionShape
		want Strategy
	}{
		{
			name: "single thread",
			sh:   ReductionShape{OutElems: 100, Updates: 1000, Threads: 1},
			want: Atomic,
		},
		{
			name: "small output, high reuse",
			sh:   ReductionShape{OutElems: 1 << 10, Updates: 1 << 20, Threads: 8},
			want: Privatized,
		},
		{
			name: "output over privatization budget",
			sh:   ReductionShape{OutElems: PrivatizationBudget, Updates: 1 << 30, Threads: 8},
			want: Atomic,
		},
		{
			name: "too little reuse to pay for the merge",
			sh:   ReductionShape{OutElems: 1 << 10, Updates: 1 << 10, Threads: 8},
			want: Atomic,
		},
		{
			name: "budget boundary exactly met",
			sh:   ReductionShape{OutElems: PrivatizationBudget / 8, Updates: 1 << 30, Threads: 8},
			want: Privatized,
		},
	}
	for _, c := range cases {
		if got := Choose(Auto, c.sh); got != c.want {
			t.Errorf("%s: Choose(Auto, %+v) = %v, want %v", c.name, c.sh, got, c.want)
		}
	}
}

func TestChooseZeroThreadsReadsGlobal(t *testing.T) {
	orig := NumThreads()
	defer SetNumThreads(orig)
	sh := ReductionShape{OutElems: 100, Updates: 10000}
	SetNumThreads(1)
	if got := Choose(Auto, sh); got != Atomic {
		t.Errorf("threads=0 with NumThreads=1: got %v, want Atomic", got)
	}
	SetNumThreads(4)
	if got := Choose(Auto, sh); got != Privatized {
		t.Errorf("threads=0 with NumThreads=4: got %v, want Privatized", got)
	}
}
