package perfmodel

import (
	"testing"

	"repro/internal/memsim"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("bluegene"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestByNameReturnsFreshCopies(t *testing.T) {
	a, _ := ByName("skx-impi")
	b, _ := ByName("skx-impi")
	a.NetBandwidth = 1
	if b.NetBandwidth == 1 {
		t.Fatal("profiles share state")
	}
}

func TestEagerDecision(t *testing.T) {
	p := SkxImpi()
	if !p.Eager(p.EagerLimit, false) {
		t.Fatal("at-limit message should be eager")
	}
	if p.Eager(p.EagerLimit+1, false) {
		t.Fatal("over-limit message should rendezvous")
	}
}

func TestPackedEagerFactorCray(t *testing.T) {
	p := Ls5Cray()
	n := p.EagerLimit + 1
	if p.Eager(n, false) {
		t.Fatal("contiguous over-limit message eager")
	}
	if !p.Eager(n, true) {
		t.Fatal("Cray packed sends should stay eager to 2× the limit (§4.5)")
	}
	if p.Eager(2*p.EagerLimit+1, true) {
		t.Fatal("packed eager limit not bounded at 2×")
	}
}

func TestInternalBWDegrades(t *testing.T) {
	p := SkxImpi()
	under := p.InternalBW(p.DegradeBytes)
	if under != p.NetBandwidth {
		t.Fatalf("no degradation expected at the threshold, got %g", under)
	}
	over := p.InternalBW(1e9)
	if over >= under {
		t.Fatalf("InternalBW(1e9) = %g, want < %g (§4.1 degradation)", over, under)
	}
	if over < p.NetBandwidth/6 {
		t.Fatalf("degradation unreasonably deep: %g", over)
	}
}

func TestOneSidedBWMvapichPenalty(t *testing.T) {
	impi := SkxImpi()
	mva := SkxMvapich()
	n := int64(1 << 20) // intermediate size
	if mva.OneSidedBW(n) >= 0.5*impi.OneSidedBW(n) {
		t.Fatalf("mvapich one-sided (%g) should be several factors below impi (%g) (§4.4)",
			mva.OneSidedBW(n), impi.OneSidedBW(n))
	}
}

func TestCrayOneSidedParityAtLarge(t *testing.T) {
	p := Ls5Cray()
	n := int64(5e8)
	two := p.InternalBW(n)
	one := p.OneSidedBW(n)
	// §4.8: on Cray, large one-sided ≈ derived types.
	if one < 0.8*two || one > 1.2*two {
		t.Fatalf("cray large one-sided %g vs two-sided internal %g not at parity", one, two)
	}
}

func TestWireTime(t *testing.T) {
	p := SkxImpi()
	if p.WireTime(0) != 0 {
		t.Fatal("zero bytes has wire time")
	}
	got := p.WireTime(int64(p.NetBandwidth))
	if got < 0.999 || got > 1.001 {
		t.Fatalf("one-second payload wire time = %g", got)
	}
}

func TestChunks(t *testing.T) {
	p := SkxImpi()
	if p.Chunks(0) != 0 {
		t.Fatal("zero payload has chunks")
	}
	if p.Chunks(1) != 1 {
		t.Fatal("tiny payload needs one chunk")
	}
	if got := p.Chunks(p.InternalChunk()*3 + 1); got != 4 {
		t.Fatalf("chunks = %d, want 4", got)
	}
}

// TestInternalChunkPromotion pins the per-profile calibration of the
// internal chunk size and the pipeline slot-ring depth on the memory
// hierarchy, with the documented defaults for uncalibrated profiles.
func TestInternalChunkPromotion(t *testing.T) {
	cases := []struct {
		prof  *Profile
		chunk int64
		depth int
	}{
		{SkxImpi(), 512 << 10, 3},
		{SkxMvapich(), 512 << 10, 3},
		{Ls5Cray(), 256 << 10, 2},
		{KnlImpi(), 512 << 10, 4},
	}
	for _, c := range cases {
		if got := c.prof.InternalChunk(); got != c.chunk {
			t.Errorf("%s: InternalChunk = %d, want %d", c.prof.Name, got, c.chunk)
		}
		if got := c.prof.PipelineDepth(); got != c.depth {
			t.Errorf("%s: PipelineDepth = %d, want %d", c.prof.Name, got, c.depth)
		}
		if err := c.prof.Validate(); err != nil {
			t.Errorf("%s: %v", c.prof.Name, err)
		}
	}
	// Uncalibrated hierarchies fall back to the documented defaults.
	p := SkxImpi()
	p.Mem.InternalChunk = 0
	p.Mem.PipelineDepth = 0
	if got := p.InternalChunk(); got != memsim.DefaultInternalChunk {
		t.Errorf("default InternalChunk = %d, want %d", got, memsim.DefaultInternalChunk)
	}
	if got := p.PipelineDepth(); got != memsim.DefaultPipelineDepth {
		t.Errorf("default PipelineDepth = %d, want %d", got, memsim.DefaultPipelineDepth)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("defaulted profile must validate: %v", err)
	}
	// Negative calibrations are rejected by the hierarchy validation.
	p.Mem.InternalChunk = -1
	if err := p.Validate(); err == nil {
		t.Error("negative InternalChunk accepted")
	}
	p.Mem.InternalChunk = 0
	p.Mem.PipelineDepth = -2
	if err := p.Validate(); err == nil {
		t.Error("negative PipelineDepth accepted")
	}
}

func TestKnlWeakCores(t *testing.T) {
	knl := KnlImpi()
	skx := SkxImpi()
	if knl.Mem.CopyBW >= skx.Mem.CopyBW/2 {
		t.Fatal("KNL copy bandwidth should be far below SKX (§4.8)")
	}
	if knl.CallOverhead <= skx.CallOverhead {
		t.Fatal("KNL per-call overhead should exceed SKX")
	}
	// Peak network within 20% of each other ("same peak network
	// performance").
	ratio := knl.NetBandwidth / skx.NetBandwidth
	if ratio < 0.75 || ratio > 1.1 {
		t.Fatalf("KNL/SKX network ratio = %v", ratio)
	}
}

func TestBsendWorse(t *testing.T) {
	for _, name := range []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"} {
		p, _ := ByName(name)
		if p.BsendWireFactor <= 1 {
			t.Errorf("%s: Bsend should carry a wire penalty (§4.2)", name)
		}
		if p.BsendOverhead <= 0 {
			t.Errorf("%s: Bsend should carry fixed overhead", name)
		}
	}
}

func TestZeroByteLatencyNearPaperMinimum(t *testing.T) {
	// §3.2: the minimum measurement ever was ≈6 µs. A zero-byte
	// ping-pong costs 2*(SendOverhead+NetLatency+RecvOverhead).
	p := SkxImpi()
	rt := 2 * (p.SendOverhead + p.NetLatency + p.RecvOverhead)
	if rt < 3e-6 || rt > 12e-6 {
		t.Fatalf("zero-byte ping-pong = %g s, want on the order of 6 µs", rt)
	}
}

func TestCollectiveTreeLimit(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		limit := p.CollectiveTreeLimit()
		if limit < p.EagerLimit {
			t.Errorf("%s: tree limit %d under the eager limit %d", name, limit, p.EagerLimit)
		}
		if limit <= 0 {
			t.Errorf("%s: non-positive tree limit %d", name, limit)
		}
	}
}
