package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// wallLimit is the watchdog of every simulated world: a hung world
// fails the run long before the benchmark's own time limit.
const wallLimit = 60 * time.Second

// unit is one self-contained piece of a workload: fresh worlds set
// up, driven through a fixed number of ops, checked and torn down. A
// run repeats units until its time is up, so every unit's simulated
// results must be the same and its digest shows whether they were.
type unit struct {
	setup time.Duration // host time before the first timed op
	timed time.Duration // host time of the timed phase
	lat   []float64     // host time per completed op, µs; dropped once summarised

	samples  int     // len(lat) before it was dropped
	p50, p99 float64 // of lat, µs
	latErr   error   // too few samples for the percentiles

	attempted, completed int64

	mallocs  uint64 // heap allocations in the timed phase
	heapLive uint64 // live heap after a forced GC at the steady point

	digest [3]uint64 // see digestNames
	wrong  []string  // failed output checks

	layer layerCounts
}

// summariseLatency computes the unit's latency percentiles and drops
// the samples, so that the units a run keeps do not grow the heap the
// next unit's heap_live_MB measures.
func (u *unit) summariseLatency() {
	sort.Float64s(u.lat)
	u.samples = len(u.lat)
	if u.p50, u.latErr = percentile(u.lat, 0.50); u.latErr == nil {
		u.p99, u.latErr = tailPercentile(u.lat, 0.99)
	}
	u.lat = nil
}

// layerCounts are module counters read at the timed-phase boundaries.
type layerCounts struct {
	plan  datatype.PlanStats
	pool  buf.PoolStats
	match simnet.MatchStats // takes over the timed phases, live queues at the end of the last
	net   simnet.Counters   // fabric counters summed over ranks
	bytes int64             // payload bytes the ops carried

	gcCPU, cpu float64 // runtime CPU-class deltas, seconds

	collAllocs uint64 // heap allocations inside Allreduce calls
	collCalls  int64  // Allreduce calls, counted per rank
}

// add accumulates b into a.
func (a *layerCounts) add(b layerCounts) {
	a.plan = addPlan(a.plan, b.plan)
	a.pool.Gets += b.pool.Gets
	a.pool.Hits += b.pool.Hits
	a.match.FastTakes += b.match.FastTakes
	a.match.WildTakes += b.match.WildTakes
	a.match.Queues += b.match.Queues
	a.net = addNet(a.net, b.net)
	a.bytes += b.bytes
	a.gcCPU += b.gcCPU
	a.cpu += b.cpu
	a.collAllocs += b.collAllocs
	a.collCalls += b.collCalls
}

var cpuClasses = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// phase is the state of the process-wide counters at the start of a
// timed phase.
type phase struct {
	t       time.Time
	mallocs uint64
	plan    datatype.PlanStats
	pool    buf.PoolStats
	gc, cpu float64
}

func startPhase() phase {
	p := phase{plan: datatype.PlanStatsSnapshot(), pool: buf.PoolStatsSnapshot(), mallocs: mallocs()}
	p.gc, p.cpu = cpuSeconds()
	p.t = time.Now()
	return p
}

// exclude runs fn inside the phase without counting its host time or
// CPU: the forced collection behind heap_live_MB is not the workload's.
func (p *phase) exclude(fn func()) {
	t := time.Now()
	gc, cpu := cpuSeconds()
	fn()
	gc2, cpu2 := cpuSeconds()
	p.gc += gc2 - gc
	p.cpu += cpu2 - cpu
	p.t = p.t.Add(time.Since(t))
}

// stop ends the phase, adding its host time and counter deltas to u.
func (p phase) stop(u *unit) {
	u.timed += time.Since(p.t)
	u.mallocs += mallocs() - p.mallocs
	u.layer.plan = addPlan(u.layer.plan, datatype.PlanStatsSnapshot().Sub(p.plan))
	pool := buf.PoolStatsSnapshot().Sub(p.pool)
	u.layer.pool.Gets += pool.Gets
	u.layer.pool.Hits += pool.Hits
	gc, cpu := cpuSeconds()
	u.layer.gcCPU += gc - p.gc
	u.layer.cpu += cpu - p.cpu
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuSeconds() (gc, total float64) {
	metrics.Read(cpuClasses)
	return cpuClasses[0].Value.Float64(), cpuClasses[1].Value.Float64()
}

// addPlan sums the plan-engine counters the per-layer metrics read.
func addPlan(a, b datatype.PlanStats) datatype.PlanStats {
	a.PlanHits += b.PlanHits
	a.PlanMisses += b.PlanMisses
	a.ContigBytes += b.ContigBytes
	a.StrideBytes += b.StrideBytes
	a.GatherBytes += b.GatherBytes
	a.BlockBytes += b.BlockBytes
	a.CursorBytes += b.CursorBytes
	a.FusedBytes += b.FusedBytes
	a.StagedBytes += b.StagedBytes
	return a
}

// addNet sums fabric counters.
func addNet(a, b simnet.Counters) simnet.Counters {
	a.EagerSends += b.EagerSends
	a.RendezvousSends += b.RendezvousSends
	a.BytesInjected += b.BytesInjected
	a.BytesDelivered += b.BytesDelivered
	a.MessagesMatched += b.MessagesMatched
	a.Probes += b.Probes
	a.Drops += b.Drops
	a.Corruptions += b.Corruptions
	a.Truncations += b.Truncations
	a.Duplicates += b.Duplicates
	a.Reorders += b.Reorders
	a.Delays += b.Delays
	a.Retries += b.Retries
	a.IntegrityRejects += b.IntegrityRejects
	a.ChunkRetransmits += b.ChunkRetransmits
	a.RetransmitBytes += b.RetransmitBytes
	a.DupChunksSuppressed += b.DupChunksSuppressed
	return a
}

// errGateAborted is returned by ranks released from a gate because
// another rank failed.
var errGateAborted = errors.New("perfbench: another rank failed")

// gate is a host-side barrier for the rank goroutines of one world.
// It takes measurements at points where every rank has stopped: the
// last rank to arrive runs fn before any is released, so fn sees no
// simulated work in flight. It has no effect on virtual time.
type gate struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	waiting int
	gen     uint64
	aborted bool
}

func newGate(n int) *gate {
	g := &gate{n: n}
	g.cond.L = &g.mu
	return g
}

// wait blocks until all n ranks have arrived. It returns
// errGateAborted if a rank aborted the gate instead.
func (g *gate) wait(fn func()) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted {
		return errGateAborted
	}
	g.waiting++
	if g.waiting == g.n {
		if fn != nil {
			fn()
		}
		g.waiting = 0
		g.gen++
		g.cond.Broadcast()
		return nil
	}
	gen := g.gen
	for gen == g.gen && !g.aborted {
		g.cond.Wait()
	}
	if gen == g.gen {
		return errGateAborted
	}
	return nil
}

// abort releases every waiter with errGateAborted; a failing rank
// calls it so the others do not wait for it forever.
func (g *gate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// world is the host-side state shared by the ranks of one simulated
// world: the gate that brackets its timed phase, one tracer per rank,
// and the output checks that failed.
type world struct {
	g   *gate
	trs []*tracer

	net  []simnet.Counters // each rank's counters at the last boundary
	ph   phase
	m0   simnet.MatchStats
	n0   simnet.Counters
	mEnd simnet.MatchStats // fabric-wide matching at the end boundary
	mark uint64            // a counter a workload reads at one gate and subtracts at the next

	mu    sync.Mutex
	wrong []string
}

func newWorld(n int, log *traceLog) *world {
	return &world{g: newGate(n), trs: log.tracers(n), net: make([]simnet.Counters, n)}
}

// failf records a wrong output; any rank may call it.
func (w *world) failf(format string, args ...any) {
	w.mu.Lock()
	w.wrong = append(w.wrong, fmt.Sprintf(format, args...))
	w.mu.Unlock()
}

// abortOn releases the other ranks from the gate when this rank's
// body returns an error. Use as defer w.abortOn(&err).
func (w *world) abortOn(err *error) {
	if *err != nil {
		w.g.abort()
	}
}

// begin starts the timed phase once every rank has called it; fn, if
// not nil, runs first, while no rank is working.
func (w *world) begin(c *mpi.Comm, fn func()) error {
	w.net[c.Rank()] = c.Counters()
	return w.g.wait(func() {
		if fn != nil {
			fn()
		}
		w.m0 = c.MatchStats()
		w.n0 = sumNet(w.net)
		w.ph = startPhase()
	})
}

// pause runs fn once every rank has called it, outside the phase's
// host time.
func (w *world) pause(fn func()) error {
	return w.g.wait(func() { w.ph.exclude(fn) })
}

// end stops the timed phase once every rank has called it and adds its
// counter deltas to u.
func (w *world) end(c *mpi.Comm, u *unit) error {
	w.net[c.Rank()] = c.Counters()
	return w.g.wait(func() {
		w.ph.stop(u)
		w.mEnd = c.MatchStats()
		u.layer.match.FastTakes += w.mEnd.FastTakes - w.m0.FastTakes
		u.layer.match.WildTakes += w.mEnd.WildTakes - w.m0.WildTakes
		u.layer.match.Queues = w.mEnd.Queues
		u.layer.net = addNet(u.layer.net, subNet(sumNet(w.net), w.n0))
	})
}

// finish folds the world's spans and failed checks into u.
func (w *world) finish(u *unit, log *traceLog) {
	log.collect(w.trs)
	u.wrong = append(u.wrong, w.wrong...)
}

func sumNet(cs []simnet.Counters) simnet.Counters {
	var s simnet.Counters
	for _, c := range cs {
		s = addNet(s, c)
	}
	return s
}

// subNet returns a - b field by field.
func subNet(a, b simnet.Counters) simnet.Counters {
	b.EagerSends, b.RendezvousSends = -b.EagerSends, -b.RendezvousSends
	b.BytesInjected, b.BytesDelivered = -b.BytesInjected, -b.BytesDelivered
	b.MessagesMatched, b.Probes = -b.MessagesMatched, -b.Probes
	b.Drops, b.Corruptions, b.Truncations = -b.Drops, -b.Corruptions, -b.Truncations
	b.Duplicates, b.Reorders, b.Delays = -b.Duplicates, -b.Reorders, -b.Delays
	b.Retries, b.IntegrityRejects = -b.Retries, -b.IntegrityRejects
	b.ChunkRetransmits, b.RetransmitBytes = -b.ChunkRetransmits, -b.RetransmitBytes
	b.DupChunksSuppressed = -b.DupChunksSuppressed
	return addNet(a, b)
}

// us converts a host duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
