package memsim

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
)

func testHierarchy() *Hierarchy {
	return &Hierarchy{
		LineSize:         64,
		L1:               32 << 10,
		L2:               1 << 20,
		LLC:              32 << 20,
		CopyBW:           10e9,
		StreamBW:         12e9,
		CacheBW:          40e9,
		MissLatency:      90e-9,
		PrefetchMinBlock: 256,
		PrefetchStreams:  16,
		SegmentOverhead:  2e-9,
	}
}

func TestValidate(t *testing.T) {
	h := testHierarchy()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *h
	bad.CopyBW = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth validated")
	}
}

func TestTrafficContig(t *testing.T) {
	h := testHierarchy()
	st := layout.Describe(layout.Contig{N: 1000})
	if got := h.Traffic(st); got != 1024 {
		t.Fatalf("traffic = %d, want 1024 (line-rounded)", got)
	}
}

func TestTrafficStrideWithinLine(t *testing.T) {
	h := testHierarchy()
	// Every other float64: gaps of 8 bytes, well under a line, so the
	// whole extent is touched — the 2× amplification behind the
	// paper's factor-3 slowdown.
	st := layout.Describe(layout.Strided{Count: 1000, BlockLen: 8, Stride: 16})
	want := roundUp(st.Extent, 64)
	if got := h.Traffic(st); got != want {
		t.Fatalf("traffic = %d, want %d", got, want)
	}
	if got := h.Traffic(st); got < 2*st.Bytes-128 {
		t.Fatalf("stride-2 traffic %d should be ≈2× payload %d", got, st.Bytes)
	}
}

func TestTrafficLargeGapsSkipLines(t *testing.T) {
	h := testHierarchy()
	// 64-byte blocks separated by 4 KB: only the blocks' lines move.
	st := layout.Describe(layout.Strided{Count: 100, BlockLen: 64, Stride: 4096})
	if got := h.Traffic(st); got != 100*64 {
		t.Fatalf("traffic = %d, want %d", got, 100*64)
	}
}

func TestGatherCostColdVsWarm(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	src := buf.Alloc(1 << 20)
	dst := buf.Alloc(1 << 19)
	st := layout.Describe(layout.Strided{Count: 1 << 16, BlockLen: 8, Stride: 16})
	cold := s.GatherCost(src.Region(), dst.Region(), st)
	warm := s.GatherCost(src.Region(), dst.Region(), st)
	if warm >= cold {
		t.Fatalf("warm gather (%g) not faster than cold (%g)", warm, cold)
	}
}

func TestFlushResetsWarmth(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	src := buf.Alloc(1 << 20)
	dst := buf.Alloc(1 << 19)
	st := layout.Describe(layout.Strided{Count: 1 << 16, BlockLen: 8, Stride: 16})
	cold := s.GatherCost(src.Region(), dst.Region(), st)
	s.Flush()
	again := s.GatherCost(src.Region(), dst.Region(), st)
	if again != cold {
		t.Fatalf("post-flush cost %g differs from cold cost %g", again, cold)
	}
}

func TestResidencyEvictsLRU(t *testing.T) {
	h := testHierarchy()
	h.LLC = 1 << 20 // 1 MB cache
	s := NewState(h)
	a, b, c := buf.Alloc(1), buf.Alloc(1), buf.Alloc(1)
	s.Touch(a.Region(), 512<<10)
	s.Touch(b.Region(), 512<<10)
	if r := s.Residency(a.Region(), 512<<10); r != 1 {
		t.Fatalf("a residency = %v", r)
	}
	s.Touch(c.Region(), 512<<10) // evicts a (oldest)
	if r := s.Residency(a.Region(), 512<<10); r != 0 {
		t.Fatalf("a not evicted: %v", r)
	}
	if r := s.Residency(c.Region(), 512<<10); r != 1 {
		t.Fatalf("c residency = %v", r)
	}
}

func TestDisabledStateAlwaysCold(t *testing.T) {
	s := NewState(testHierarchy())
	s.SetDisabled(true)
	r := buf.Alloc(1)
	s.Touch(r.Region(), 1<<20)
	if got := s.Residency(r.Region(), 1<<20); got != 0 {
		t.Fatalf("disabled state has residency %v", got)
	}
}

func TestIrregularGatherCostsMore(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	s.SetDisabled(true) // isolate the prefetch effect from warmth
	src, dst := buf.Alloc(1), buf.Alloc(1)
	regular := layout.Describe(layout.Jittered(10000, 8, 64, 0))
	jittered := layout.Describe(layout.Jittered(10000, 8, 64, 0.9))
	cr := s.GatherCost(src.Region(), dst.Region(), regular)
	cj := s.GatherCost(src.Region(), dst.Region(), jittered)
	if cj <= cr {
		t.Fatalf("irregular gather (%g) not slower than regular (%g)", cj, cr)
	}
}

func TestLargerBlocksCheaperPerByte(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	s.SetDisabled(true)
	src, dst := buf.Alloc(1), buf.Alloc(1)
	payload := int64(1 << 20)
	small := layout.Describe(layout.Strided{Count: payload / 8, BlockLen: 8, Stride: 16})
	big := layout.Describe(layout.Strided{Count: payload / 512, BlockLen: 512, Stride: 1024})
	cSmall := s.GatherCost(src.Region(), dst.Region(), small)
	cBig := s.GatherCost(src.Region(), dst.Region(), big)
	if cBig >= cSmall {
		t.Fatalf("big-block gather (%g) not cheaper than small-block (%g)", cBig, cSmall)
	}
}

func TestStreamCost(t *testing.T) {
	s := NewState(testHierarchy())
	r := buf.Alloc(1)
	cold := s.StreamCost(r.Region(), 12e6)
	if cold < 0.9e-3 || cold > 1.1e-3 {
		t.Fatalf("stream of 12 MB at 12 GB/s = %g, want ≈1 ms", cold)
	}
	warm := s.StreamCost(r.Region(), 12e6)
	if warm >= cold {
		t.Fatalf("warm stream (%g) not faster", warm)
	}
}

func TestScatterCost(t *testing.T) {
	s := NewState(testHierarchy())
	s.SetDisabled(true)
	src, dst := buf.Alloc(1), buf.Alloc(1)
	st := layout.Describe(layout.Strided{Count: 1000, BlockLen: 8, Stride: 16})
	c := s.ScatterCost(src.Region(), dst.Region(), st)
	if c <= 0 {
		t.Fatalf("scatter cost = %g", c)
	}
	// Scatter reads contiguous, so it should cost no more than the
	// equivalent gather, which reads with stride amplification.
	g := s.GatherCost(src.Region(), dst.Region(), st)
	if c > g*1.5 {
		t.Fatalf("scatter %g unexpectedly dearer than gather %g", c, g)
	}
}

func TestZeroSizedOpsFree(t *testing.T) {
	s := NewState(testHierarchy())
	r := buf.Alloc(1)
	if s.StreamCost(r.Region(), 0) != 0 || s.CopyCost(r.Region(), r.Region(), 0) != 0 {
		t.Fatal("zero-byte op has nonzero cost")
	}
	if s.GatherCost(r.Region(), r.Region(), layout.Stats{}) != 0 {
		t.Fatal("empty gather has nonzero cost")
	}
}

func TestFlushCostPositive(t *testing.T) {
	s := NewState(testHierarchy())
	if s.FlushCost() <= 0 {
		t.Fatal("flush cost must be positive")
	}
}

// TestPipelinedChunkCost pins the two-stage pipeline bound: the
// overlapped span sits between max(pack, consume) + one fill and the
// serial sum, degenerates to the serial sum for single chunks or a
// disabled ring, and is monotone in the chunk count.
func TestPipelinedChunkCost(t *testing.T) {
	const pack, wire = 1.0, 0.6
	serial := pack + wire
	if got := PipelinedChunkCost(pack, wire, 1, 2); got != serial {
		t.Errorf("single chunk = %g, want the serial sum %g", got, serial)
	}
	if got := PipelinedChunkCost(pack, wire, 8, 0); got != serial {
		t.Errorf("depth 0 = %g, want the serial sum %g", got, serial)
	}
	for _, chunks := range []int64{2, 8, 64} {
		got := PipelinedChunkCost(pack, wire, chunks, 2)
		if got >= serial {
			t.Errorf("%d chunks: %g not below serial %g", chunks, got, serial)
		}
		slow := pack
		if wire > slow {
			slow = wire
		}
		if got < slow {
			t.Errorf("%d chunks: %g below the slower stage %g", chunks, got, slow)
		}
	}
	// Finer chunking approaches the slower-stage bound.
	coarse := PipelinedChunkCost(pack, wire, 2, 2)
	fine := PipelinedChunkCost(pack, wire, 64, 2)
	if fine >= coarse {
		t.Errorf("finer chunking (%g) not below coarser (%g)", fine, coarse)
	}
}

// TestHierarchyChunkValidation pins the promoted chunk/depth fields'
// validation and defaults.
func TestHierarchyChunkValidation(t *testing.T) {
	h := Hierarchy{LineSize: 64, LLC: 1 << 20, CopyBW: 1e9, StreamBW: 1e9, CacheBW: 1e9}
	if err := h.Validate(); err != nil {
		t.Fatalf("zero chunk/depth must validate (defaults apply): %v", err)
	}
	if h.InternalChunkSize() != DefaultInternalChunk {
		t.Errorf("InternalChunkSize = %d, want default %d", h.InternalChunkSize(), DefaultInternalChunk)
	}
	if h.ChunkPipelineDepth() != DefaultPipelineDepth {
		t.Errorf("ChunkPipelineDepth = %d, want default %d", h.ChunkPipelineDepth(), DefaultPipelineDepth)
	}
	h.InternalChunk = -1
	if err := h.Validate(); err == nil {
		t.Error("negative InternalChunk accepted")
	}
	h.InternalChunk = 0
	h.PipelineDepth = -1
	if err := h.Validate(); err == nil {
		t.Error("negative PipelineDepth accepted")
	}
}
