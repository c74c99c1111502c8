package buf

import "testing"

// TestPoolPressureRatio pins the occupancy-ratio gauge behind the
// adaptive eager limit: 0 with no cap, clamped to [0,1] otherwise.
func TestPoolPressureRatio(t *testing.T) {
	old := SetPoolCap(0)
	defer SetPoolCap(old)
	if r := PoolPressureRatio(); r != 0 {
		t.Fatalf("uncapped ratio %v, want 0", r)
	}

	base := PoolInUse()
	SetPoolCap(base + 4096)
	b := GetPooled(1000) // class-rounded to 1024
	if got := PoolInUse() - base; got != 1024 {
		t.Fatalf("inUse delta %d, want 1024", got)
	}
	r := PoolPressureRatio()
	want := float64(base+1024) / float64(base+4096)
	if r < want-1e-9 || r > want+1e-9 {
		t.Fatalf("ratio %v, want %v", r, want)
	}
	PutPooled(b)
	if got := PoolInUse() - base; got != 0 {
		t.Fatalf("inUse delta %d after put, want 0", got)
	}
	SetPoolCap(1) // any live residue clamps to 1
	if r := PoolPressureRatio(); r < 0 || r > 1 {
		t.Fatalf("ratio %v outside [0,1]", r)
	}
}

// TestPoolShardInUseGauge pins the occupancy gauge across goroutines:
// a checkout is charged class-rounded when drawn and discharged when
// released, wherever the release runs. The gauge was once kept per
// rank shard; the shards are gone and the whole-pool gauge remains.
func TestPoolShardInUseGauge(t *testing.T) {
	base := PoolInUse()
	b := GetPooled(2048)
	if d := PoolStatsSnapshot().InUseBytes - base; d != 2048 {
		t.Fatalf("inUse delta %d after get, want 2048", d)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		PutPooled(b)
	}()
	<-done
	if d := PoolStatsSnapshot().InUseBytes - base; d != 0 {
		t.Fatalf("inUse delta %d after put, want 0", d)
	}
}

// TestEagerAdaptationCounter pins the counter plumbing.
func TestEagerAdaptationCounter(t *testing.T) {
	before := PoolStatsSnapshot().EagerAdaptations
	NoteEagerAdaptation()
	if d := PoolStatsSnapshot().EagerAdaptations - before; d != 1 {
		t.Fatalf("EagerAdaptations delta %d, want 1", d)
	}
}
