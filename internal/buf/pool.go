package buf

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements the size-classed block pool behind the
// runtime's transient buffers: pack scratch, eager transit copies and
// rendezvous staging in internal/mpi. Those allocations are pure
// per-message overhead — exactly the software cost the paper shows
// dominating non-contiguous sends — so the hot path recycles them
// through power-of-two sync.Pool classes instead of allocating.
// sync.Pool already keeps a free list per processor, so ranks churning
// transit blocks concurrently do not contend on one list per class.
//
// Contract: GetPooled returns a real block whose contents are
// UNDEFINED (not zeroed — zeroing would cost the bandwidth the pool
// saves); callers must write before they read. PutPooled returns the
// backing storage to its class; the caller must not touch the block —
// or any Slice of it — afterwards. Only the Block returned by
// GetPooled can release the storage: sub-blocks made with Slice are
// plain views. Double-release is the caller's bug, as with any free
// list; the release points in internal/mpi are the single
// receive-completion sites.

const (
	// minPoolBits..maxPoolBits bound the pooled classes: 256 B to
	// 64 MiB. Below, the allocator is cheap enough; above, holding the
	// memory would outweigh reuse (the harness caps real payloads at
	// 16 MiB by default).
	minPoolBits = 8
	maxPoolBits = 26

	poolClasses = maxPoolBits - minPoolBits + 1
)

// blockPools holds each class's free storage as a pointer to its first
// byte: a pointer fits in an interface without allocating, so a release
// costs no heap allocation (a *[]byte would cost one per Put).
var blockPools [poolClasses]sync.Pool

// poolCounters feed PoolStats so tests and studies can verify reuse.
var poolCounters struct {
	gets, hits, puts atomic.Int64
}

// Pool occupancy accounting for bounded-memory backpressure: inUse is
// the storage (class-rounded) currently checked out of the pool,
// capBytes the soft occupancy cap (0 = unlimited), degradations the
// number of sends that fell back from eager to rendezvous because a
// transit copy would have pushed occupancy past the cap.
var poolPressure struct {
	inUse        atomic.Int64
	capBytes     atomic.Int64
	degradations atomic.Int64
	eagerAdapted atomic.Int64
}

// SetPoolCap sets the pool occupancy cap in bytes (0 disables) and
// returns the previous cap. Senders consult PoolOverCap before drawing
// an eager transit copy; past the cap they degrade to rendezvous,
// which stages nothing on the send side.
func SetPoolCap(n int64) int64 {
	return poolPressure.capBytes.Swap(n)
}

// PoolCap returns the current occupancy cap (0 = unlimited).
func PoolCap() int64 { return poolPressure.capBytes.Load() }

// PoolInUse returns the class-rounded bytes currently checked out.
func PoolInUse() int64 { return poolPressure.inUse.Load() }

// PoolOverCap reports whether drawing extra more bytes would push the
// pool past its occupancy cap. Always false with no cap set.
func PoolOverCap(extra int64) bool {
	cap := poolPressure.capBytes.Load()
	return cap > 0 && poolPressure.inUse.Load()+extra > cap
}

// NotePoolDegradation records one eager→rendezvous backpressure
// fallback.
func NotePoolDegradation() { poolPressure.degradations.Add(1) }

// PoolPressureRatio returns the occupancy as a fraction of the cap in
// [0,1]; 0 with no cap set. Senders use it to adapt their effective
// eager limit before the hard PoolOverCap wall: shrinking eager
// traffic early keeps occupancy bounded without the latency cliff of
// an outright rendezvous degradation at the cap.
func PoolPressureRatio() float64 {
	cap := poolPressure.capBytes.Load()
	if cap <= 0 {
		return 0
	}
	r := float64(poolPressure.inUse.Load()) / float64(cap)
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// NoteEagerAdaptation records one send whose effective eager limit was
// shrunk by pool pressure (it went rendezvous although the profile's
// nominal eager limit would have allowed an eager transit copy).
func NoteEagerAdaptation() { poolPressure.eagerAdapted.Add(1) }

// PoolStats is a snapshot of the block-pool counters.
type PoolStats struct {
	Gets int64 // pooled-range GetPooled calls
	Hits int64 // Gets served by recycled storage
	Puts int64 // blocks returned

	// InUseBytes is the class-rounded storage currently checked out;
	// CapBytes the occupancy cap (0 = unlimited); Degradations the
	// count of eager sends that fell back to rendezvous under the cap
	// (see SetPoolCap). InUseBytes and CapBytes are point-in-time
	// gauges, not counters: Sub carries the receiver's values through.
	InUseBytes   int64
	CapBytes     int64
	Degradations int64
	// EagerAdaptations counts sends whose effective eager limit was
	// shrunk under pool pressure before the hard cap (see
	// NoteEagerAdaptation).
	EagerAdaptations int64
}

// Sub returns the counter-wise difference s - o.
func (s PoolStats) Sub(o PoolStats) PoolStats {
	return PoolStats{
		Gets: s.Gets - o.Gets, Hits: s.Hits - o.Hits, Puts: s.Puts - o.Puts,
		InUseBytes: s.InUseBytes, CapBytes: s.CapBytes,
		Degradations:     s.Degradations - o.Degradations,
		EagerAdaptations: s.EagerAdaptations - o.EagerAdaptations,
	}
}

// PoolStatsSnapshot returns the current block-pool counters.
func PoolStatsSnapshot() PoolStats {
	return PoolStats{
		Gets:             poolCounters.gets.Load(),
		Hits:             poolCounters.hits.Load(),
		Puts:             poolCounters.puts.Load(),
		InUseBytes:       poolPressure.inUse.Load(),
		CapBytes:         poolPressure.capBytes.Load(),
		Degradations:     poolPressure.degradations.Load(),
		EagerAdaptations: poolPressure.eagerAdapted.Load(),
	}
}

// poolClassFor returns the class index for an n-byte request, or -1
// when n lies outside the pooled range.
func poolClassFor(n int) int {
	if n <= 0 || n > 1<<maxPoolBits {
		return -1
	}
	bits := minPoolBits
	for 1<<bits < n {
		bits++
	}
	return bits - minPoolBits
}

// GetPooled returns a real block of n bytes backed by size-classed
// recycled storage. The contents are undefined; the caller must write
// before reading. Requests outside the pooled range fall back to a
// plain (zeroed) allocation. The block carries a fresh Region: the
// cache model treats it like any new allocation.
func GetPooled(n int) Block {
	c := poolClassFor(n)
	if c < 0 {
		return Alloc(n)
	}
	size := 1 << (minPoolBits + c)
	poolCounters.gets.Add(1)
	poolPressure.inUse.Add(int64(size))
	var sl []byte
	if p := blockPools[c].Get(); p != nil {
		poolCounters.hits.Add(1)
		sl = unsafe.Slice(p.(*byte), size)
	} else {
		sl = make([]byte, size)
	}
	return Block{data: sl[:n], n: n, region: nextRegion(), pool: int8(c) + 1}
}

// PutPooled returns a block obtained from GetPooled to its size class.
// It is a no-op for any other block (plain, virtual, or a Slice view),
// so release sites can call it unconditionally.
func PutPooled(b Block) {
	if b.pool == 0 || b.data == nil {
		return
	}
	poolPressure.inUse.Add(-(int64(1) << (minPoolBits + int(b.pool) - 1)))
	poolCounters.puts.Add(1)
	blockPools[b.pool-1].Put(unsafe.SliceData(b.data))
}
