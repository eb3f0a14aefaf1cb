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
