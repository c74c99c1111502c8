package memsim

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
)

// everyOtherStats is the paper's canonical every-other-double layout
// at 1 MiB of payload.
func everyOtherStats() layout.Stats {
	return layout.Stats{Segments: 1 << 17, Bytes: 1 << 20, Extent: 2 << 20, AvgBlock: 8, AvgGap: 8, MinBlock: 8, MaxBlock: 8, Density: 0.5}
}

func contigStats(n int64) layout.Stats {
	return layout.Stats{Segments: 1, Bytes: n, Extent: n, AvgBlock: float64(n), MinBlock: n, MaxBlock: n, Density: 1}
}

// TestFusedCopyCostUnderStagedSum pins the point of the fused engine:
// one pass must price below the staged gather+scatter pipeline it
// replaces, for both typed→contig and typed→typed destinations, while
// staying at or above the pure traffic floor.
func TestFusedCopyCostUnderStagedSum(t *testing.T) {
	st := everyOtherStats()
	n := st.Bytes
	srcR, stagingR, dstR := buf.Alloc(1).Region(), buf.Alloc(1).Region(), buf.Alloc(1).Region()

	for _, dstSt := range []layout.Stats{contigStats(n), st} {
		fused := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, dstSt)
		stagedState := NewState(testHierarchy())
		staged := stagedState.CompiledGatherCost(srcR, stagingR, st) +
			stagedState.CompiledScatterCost(stagingR, dstR, dstSt)
		if fused >= staged {
			t.Fatalf("fused %g not under staged gather+scatter %g (dst segments %d)", fused, staged, dstSt.Segments)
		}
		h := testHierarchy()
		floor := float64(h.Traffic(st)) / h.CopyBW
		// Prefetch degradation can push the fused pass above the naive
		// floor, but it must never beat raw traffic at full bandwidth.
		if fused < floor*0.99 {
			t.Fatalf("fused %g beats the traffic floor %g", fused, floor)
		}
	}
}

// TestFusedCopyCostZero pins the trivial cases.
func TestFusedCopyCostZero(t *testing.T) {
	s := NewState(testHierarchy())
	if c := s.FusedCopyCost(1, 2, layout.Stats{}, layout.Stats{}); c != 0 {
		t.Fatalf("empty fused copy priced %g", c)
	}
}

// TestCollectiveLegCosts pins the collective terms: the staged leg
// (pack + unpack) must price above the fused leg for the canonical
// strided layout, and the fan composers must grow with rank count and
// hold their p=1 identities.
func TestCollectiveLegCosts(t *testing.T) {
	st := everyOtherStats()
	srcR, dstR := buf.Alloc(1).Region(), buf.Alloc(1).Region()
	fused := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, st)
	staged := NewState(testHierarchy()).StagedCollectiveLegCost(srcR, dstR, st, st)
	if fused >= staged {
		t.Fatalf("fused leg %g not under staged leg %g", fused, staged)
	}

	self, leg, wire, over := 1e-4, 2e-4, 1e-4, 1e-6
	if got := LinearFanCost(1, self, leg, wire, over); got != self {
		t.Fatalf("LinearFanCost(1) = %g, want the self leg %g", got, self)
	}
	if got := TreeFanCost(1, self, leg, wire, over); got != self {
		t.Fatalf("TreeFanCost(1) = %g, want the self leg %g", got, self)
	}
	lin4, lin8 := LinearFanCost(4, self, leg, wire, over), LinearFanCost(8, self, leg, wire, over)
	if lin8 <= lin4 {
		t.Fatalf("linear fan not monotonic: p=8 %g vs p=4 %g", lin8, lin4)
	}
	tree8 := TreeFanCost(8, self, leg, wire, over)
	if tree8 >= lin8 {
		t.Fatalf("tree fan %g not under linear fan %g at p=8 for latency-shaped legs", tree8, lin8)
	}
}
