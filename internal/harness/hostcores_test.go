package harness

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// TestVirtualTimeIgnoresHostCores pins that virtual time prices the
// modelled installation, never the host: a real 4 MiB packing(c)
// ping-pong and a real 4 MiB sendv ping-pong report identical
// per-ping-pong virtual times at GOMAXPROCS 1 and 8, although at 8 the
// pack engine really splits the copy across goroutines.
func TestVirtualTimeIgnoresHostCores(t *testing.T) {
	prof := perfmodel.Generic()
	opt := fastOpts()
	opt.Reps = 2
	opt.MaxRealBytes = 4 << 20
	w := core.ForBytes(4 << 20)
	measure := func(procs int, s core.Scheme) Measurement {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := Measure(prof, s, w, opt)
		if err != nil {
			t.Fatalf("%v at GOMAXPROCS=%d: %v", s, procs, err)
		}
		if !m.Verified {
			t.Fatalf("%v at GOMAXPROCS=%d: payload not verified", s, procs)
		}
		return m
	}
	for _, s := range []core.Scheme{core.PackCompiled, core.Sendv} {
		one, eight := measure(1, s), measure(8, s)
		if eight.PlanStats.ParallelOps == 0 {
			t.Errorf("%v: no goroutine-split execution at GOMAXPROCS=8; the pin checks nothing", s)
		}
		if !slices.Equal(one.Times, eight.Times) {
			t.Errorf("%v: virtual times depend on GOMAXPROCS: 1 -> %v, 8 -> %v", s, one.Times, eight.Times)
		}
	}
}
