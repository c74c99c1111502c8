package simnet

import (
	"fmt"
	"testing"
	"time"
)

// matchScaleFabric builds an n-rank fabric with rank 0's mailbox
// pre-loaded with one envelope per source, so every steady-state op
// below runs against a mailbox holding n-1 live shards.
func matchScaleFabric(n int) *Fabric {
	f := New(n)
	for s := 1; s < n; s++ {
		f.Deliver(0, &Message{Src: s, Tag: 1, Kind: KindEager, Bytes: 8})
	}
	return f
}

// matchScaleOp is one steady-state matching operation: refill from the
// next source, then match — specific-source (the sharded fast path) or
// wildcard (the arrival-index walk).
func matchScaleOp(f *Fabric, src int, wild bool) {
	f.Deliver(0, &Message{Src: src, Tag: 1, Kind: KindEager, Bytes: 8})
	if wild {
		f.Match(0, 0, AnySource, 1)
	} else {
		f.Match(0, 0, src, 1)
	}
}

// BenchmarkMatchScale measures matching throughput against rank count,
// with and without wildcard receivers. Both paths must stay flat as
// ranks grow: per-(ctx,src) shards make the fast path O(1), and the
// per-context arrival index hands a wildcard its earliest candidate
// without visiting the other live shards. The CI smoke runs each cell
// once; TestMatchScale pins both numerically.
func BenchmarkMatchScale(b *testing.B) {
	for _, ranks := range []int{8, 64, 256, 1024} {
		for _, wild := range []bool{false, true} {
			b.Run(fmt.Sprintf("ranks=%d/wild=%v", ranks, wild), func(b *testing.B) {
				f := matchScaleFabric(ranks)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					matchScaleOp(f, 1+i%(ranks-1), wild)
				}
			})
		}
	}
}

// matchScaleCost returns the best-of-trials per-op cost of the
// specific-source fast path, or of wildcard matching, at the given
// rank count.
func matchScaleCost(ranks, ops, trials int, wild bool) time.Duration {
	f := matchScaleFabric(ranks)
	best := time.Duration(1<<63 - 1)
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			matchScaleOp(f, 1+i%(ranks-1), wild)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best / time.Duration(ops)
}

// TestMatchScale is the 1024-rank no-regression smoke: the sharded
// fast path's per-op cost may not grow more than 2x from 8 to 1024
// ranks, and wildcard matching at 1024 ranks may not cost more than 2x
// the fast path there (the legacy whole-mailbox scan, and the later
// all-shard wildcard scan, were linear in live sources: a >30x blowup
// on this workload). The wall-time assertions are skipped under the
// race detector — instrumented timings are meaningless — but the
// 1024-rank functional pass still runs there for race coverage.
func TestMatchScale(t *testing.T) {
	ops, trials := 20000, 5
	if raceEnabled {
		ops, trials = 2000, 1
	}
	small := matchScaleCost(8, ops, trials, false)
	large := matchScaleCost(1024, ops, trials, false)
	wild := matchScaleCost(1024, ops, trials, true)
	t.Logf("per-op match cost: 8 ranks %v, 1024 ranks %v, 1024 ranks wildcard %v", small, large, wild)
	if raceEnabled {
		t.Skip("race detector build: functional pass only, no wall-time gate")
	}
	// Guard against timer noise on very fast machines: only enforce
	// a ratio once its larger side is measurable.
	if large > 200*time.Nanosecond && large > 2*small {
		t.Fatalf("match cost not flat: %v at 8 ranks vs %v at 1024 ranks (>2x)", small, large)
	}
	if wild > 200*time.Nanosecond && wild > 2*large {
		t.Fatalf("wildcard match cost %v at 1024 ranks exceeds 2x the fast path's %v", wild, large)
	}
}
