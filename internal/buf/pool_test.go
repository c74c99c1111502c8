package buf

import (
	"fmt"
	"sync"
	"testing"
)

func TestPoolClassFor(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, -1},
		{-4, -1},
		{1, 0},
		{256, 0},
		{257, 1},
		{1 << 20, 20 - minPoolBits},
		{1 << maxPoolBits, poolClasses - 1},
		{1<<maxPoolBits + 1, -1},
	}
	for _, c := range cases {
		if got := poolClassFor(c.n); got != c.want {
			t.Errorf("poolClassFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPoolRecycles(t *testing.T) {
	// sync.Pool may drop entries under GC pressure, so assert the
	// reuse path via counters over enough round trips that at least
	// one hit is effectively certain.
	before := PoolStatsSnapshot()
	trips := int64(0)
	for trips < 64 && PoolStatsSnapshot().Sub(before).Hits == 0 {
		b := GetPooled(10_000)
		if b.Len() != 10_000 || b.IsVirtual() {
			t.Fatalf("pooled block: %v", b)
		}
		b.Bytes()[0] = 0xAB
		PutPooled(b)
		trips++
	}
	d := PoolStatsSnapshot().Sub(before)
	if d.Gets != trips || d.Puts != trips || d.Hits > d.Gets {
		t.Fatalf("pool counters %+v after %d round trips, want %d gets and puts", d, trips, trips)
	}
	if d.Hits == 0 {
		t.Fatalf("no pooled reuse across 64 get/put round trips: %+v", d)
	}
}

// TestPoolRoundTripAllocFree pins that a steady-state GetPooled/
// PutPooled round trip makes no heap allocation: the release stores a
// pointer, not a freshly allocated slice header. Under the race
// detector sync.Pool drops a random fraction of Puts by design, so the
// count only holds in plain builds.
func TestPoolRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector build: sync.Pool drops Puts at random")
	}
	PutPooled(GetPooled(4 << 10))
	allocs := testing.AllocsPerRun(1000, func() {
		b := GetPooled(4 << 10)
		b.Bytes()[0] = 1
		PutPooled(b)
	})
	if allocs != 0 {
		t.Fatalf("round trip allocates %v times, want 0", allocs)
	}
}

// TestPoolCrossGoroutineRelease pins the receive-completion shape of
// internal/mpi: a block drawn on one goroutine and released on another
// is counted once each way and leaves no occupancy behind.
func TestPoolCrossGoroutineRelease(t *testing.T) {
	const n = 8 << 10
	before := PoolStatsSnapshot()
	b := GetPooled(n)
	b.Bytes()[0] = 0xAB
	done := make(chan struct{})
	go func() {
		defer close(done)
		other := GetPooled(n)
		PutPooled(b)
		PutPooled(other)
	}()
	<-done
	d := PoolStatsSnapshot().Sub(before)
	if d.Gets != 2 || d.Puts != 2 {
		t.Fatalf("pool counters %+v, want 2 gets and 2 puts", d)
	}
	if d.InUseBytes != before.InUseBytes {
		t.Fatalf("in-use %d after the releases, want %d", d.InUseBytes, before.InUseBytes)
	}
}

// TestPoolShardStatsBreakdown pins that the whole-pool counters
// attribute every draw and release exactly once when two goroutines
// (two ranks' worth of traffic) use the pool at the same time. The
// pool once kept a counter set per rank shard; sync.Pool's per-P
// caches replaced the shards, and the totals are what remains.
func TestPoolShardStatsBreakdown(t *testing.T) {
	before := PoolStatsSnapshot()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := GetPooled(4 << 10)
			b.Bytes()[0] = 1
			PutPooled(b)
		}()
	}
	wg.Wait()
	d := PoolStatsSnapshot().Sub(before)
	if d.Gets != 2 || d.Puts != 2 {
		t.Errorf("pool counters %+v, want 2 gets and 2 puts", d)
	}
	if d.Hits < 0 || d.Hits > d.Gets {
		t.Errorf("hits %d outside [0, gets=%d]", d.Hits, d.Gets)
	}
}

func TestPoolDistinctRegions(t *testing.T) {
	a := GetPooled(512)
	PutPooled(a)
	b := GetPooled(512)
	if a.Region() == b.Region() {
		t.Fatal("recycled block kept its old region identity")
	}
	PutPooled(b)
}

func TestPutPooledNoops(t *testing.T) {
	// Plain, virtual and sliced blocks must be ignored.
	PutPooled(Alloc(128))
	PutPooled(Virtual(128))
	p := GetPooled(1024)
	view := p.Slice(0, 512)
	PutPooled(view) // a view must never release the backing storage
	view.Bytes()[0] = 1
	PutPooled(p)
}

func TestPoolOutOfRangeFallsBack(t *testing.T) {
	big := GetPooled(1<<maxPoolBits + 1)
	if big.Len() != 1<<maxPoolBits+1 {
		t.Fatalf("fallback length: %d", big.Len())
	}
	// Fallback blocks are plain allocations: zeroed, non-pooled.
	if big.Bytes()[0] != 0 {
		t.Fatal("fallback block not zeroed")
	}
	PutPooled(big) // no-op
}

// BenchmarkPoolContention measures rank goroutines churning
// transit-sized blocks through the shared pool concurrently.
func BenchmarkPoolContention(b *testing.B) {
	const blockSize = 64 << 10
	for _, ranks := range []int{2, 8} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			b.SetBytes(blockSize)
			var wg sync.WaitGroup
			per := b.N/ranks + 1
			b.ResetTimer()
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						blk := GetPooled(blockSize)
						blk.Bytes()[0] = byte(i) // touch so the Get is not dead
						PutPooled(blk)
					}
				}()
			}
			wg.Wait()
		})
	}
}
