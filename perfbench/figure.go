package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// The paper's Figure 1 protocol (§3.2) on the skx-impi installation.
const (
	figureProfile   = "skx-impi"
	figureReps      = 20       // ping-pongs per cell
	figureMaxReal   = 16 << 20 // larger payloads run virtual
	figurePerDecade = 3
)

// figure sweeps every send scheme over 10³…10⁹ bytes, one two-rank
// world per scheme, exactly as harness.MeasureSweep does, but timing
// each ping-pong in host time on rank 0, which completes it.
type figure struct {
	prof    *perfmodel.Profile
	schemes []core.Scheme     // seed-permuted
	cells   [][]core.Workload // per scheme, sizes seed-permuted
	real    []int64           // payload bytes of the materialised cells
}

// newFigure permutes the scheme order and each scheme's size order by
// seed. Cells are independent worlds or flushed between ping-pongs, so
// the simulated results, and with them the digest, do not depend on
// the order; host caches and allocator state do.
func newFigure(seed uint64) (*figure, error) {
	prof, err := perfmodel.ByName(figureProfile)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	opt := harness.DefaultOptions()
	opt.MaxRealBytes = figureMaxReal
	sizes := harness.LogSizes(1000, 1_000_000_000, figurePerDecade)
	f := &figure{prof: prof, schemes: core.Schemes()}
	rng.Shuffle(len(f.schemes), func(i, j int) { f.schemes[i], f.schemes[j] = f.schemes[j], f.schemes[i] })
	for range f.schemes {
		ws := harness.Workloads(sizes, opt)
		rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		f.cells = append(f.cells, ws)
	}
	for _, n := range sizes {
		if n <= figureMaxReal {
			f.real = append(f.real, n)
		}
	}
	return f, nil
}

// figureCell is one cell's simulated result: the kept virtual
// ping-pong times after 1σ dismissal.
type figureCell struct {
	bytes     int64
	kept      []float64
	dismissed int
}

// figureWorld is one scheme's simulated results and exact counters.
type figureWorld struct {
	scheme core.Scheme
	cells  []figureCell
	final  []float64 // each rank's virtual time at the end
	net    []simnet.Counters
	match  simnet.MatchStats
}

func (f *figure) unit(log *traceLog) unit {
	var u unit
	var worlds []figureWorld
	for si, s := range f.schemes {
		u.attempted += int64(len(f.cells[si]) * figureReps)
		fw, err := f.world(s, f.cells[si], log, &u)
		if err != nil {
			u.wrong = append(u.wrong, fmt.Sprintf("%v: %v", s, err))
			return u
		}
		worlds = append(worlds, fw)
	}
	sort.Slice(worlds, func(i, j int) bool { return worlds[i].scheme < worlds[j].scheme })
	d := newDigests()
	for _, fw := range worlds {
		sort.Slice(fw.cells, func(i, j int) bool { return fw.cells[i].bytes < fw.cells[j].bytes })
		d[0].str(fw.scheme.String())
		for _, c := range fw.cells {
			d[0].i64(c.bytes)
			d[0].i64(int64(c.dismissed))
			for _, t := range c.kept {
				d.op(t)
			}
			d.result(stats.Mean(c.kept))
		}
		for _, t := range fw.final {
			d.result(t)
		}
		d.exact(fw.net, fw.match)
	}
	u.digest = d.sums()
	return u
}

// world measures one scheme over its cells on a fresh two-rank world.
// Setup is the world start plus every cell's runner Setup; the timed
// phase of a cell runs from the barrier after Setup to the barrier
// after verification and Teardown.
func (f *figure) world(s core.Scheme, ws []core.Workload, log *traceLog, u *unit) (figureWorld, error) {
	w := newWorld(2, log)
	heapCell := largestReal(ws)
	cells := make([]figureCell, len(ws))
	var lat []float64
	final := make([]float64, 2)
	var cellStart time.Time
	start := time.Now()
	err := mpi.Run(2, mpi.Options{Profile: f.prof, WallLimit: wallLimit}, func(c *mpi.Comm) (err error) {
		defer w.abortOn(&err)
		tr := w.trs[c.Rank()]
		peer := 1 - c.Rank()
		if err := w.g.wait(func() { u.setup += time.Since(start) }); err != nil {
			return err
		}
		for wi, cw := range ws {
			runner, err := core.NewRunner(s)
			if err != nil {
				return err
			}
			if err := w.g.wait(func() { cellStart = time.Now() }); err != nil {
				return err
			}
			sp := tr.begin(spanCoreSetup, int64(wi))
			err = runner.Setup(c, cw, peer)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("setup (%d bytes): %w", cw.Bytes(), err)
			}
			c.Barrier()
			if err := w.begin(c, func() { u.setup += time.Since(cellStart) }); err != nil {
				return err
			}
			var times []float64
			for rep := int64(0); rep < figureReps; rep++ {
				// The 50 M-array rewrite between ping-pongs (§3.2).
				c.Charge(c.Cache().FlushCost())
				c.Cache().Flush()
				if c.Rank() == 1 {
					sp := tr.begin(spanCorePong, rep)
					err := runner.Pong()
					tr.end(sp)
					if err != nil {
						return fmt.Errorf("pong %d (%d bytes): %w", rep, cw.Bytes(), err)
					}
					continue
				}
				op := tr.begin(spanOp, rep)
				v0, t0 := c.Wtime(), time.Now()
				sp := tr.begin(spanCorePing, rep)
				err := runner.Ping()
				tr.end(sp)
				dt := time.Since(t0)
				tr.end(op)
				if err != nil {
					return fmt.Errorf("ping %d (%d bytes): %w", rep, cw.Bytes(), err)
				}
				lat = append(lat, us(dt))
				times = append(times, c.Wtime()-v0)
			}
			if wi == heapCell {
				if err := w.pause(func() { u.heapLive = max(u.heapLive, liveHeap()) }); err != nil {
					return err
				}
			}
			if c.Rank() == 1 && !cw.Virtual {
				sp := tr.begin(spanCoreCheck, int64(wi))
				err := runner.Check()
				tr.end(sp)
				if err != nil {
					w.failf("%v %d bytes: %v", s, cw.Bytes(), err)
				}
			}
			if err := runner.Teardown(); err != nil {
				return fmt.Errorf("teardown (%d bytes): %w", cw.Bytes(), err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				kept, dismissed := stats.DismissOutliers(times, 1)
				cells[wi] = figureCell{bytes: cw.Bytes(), kept: kept, dismissed: dismissed}
			}
			if err := w.end(c, u); err != nil {
				return err
			}
		}
		final[c.Rank()] = c.Wtime()
		return nil
	})
	w.finish(u, log)
	u.lat = append(u.lat, lat...)
	u.completed += int64(len(lat))
	return figureWorld{scheme: s, cells: cells, final: final, net: w.net, match: w.mEnd}, err
}

// largestReal is the index of the largest materialised cell: the
// steady point where the live heap peaks, or -1 if none is real.
func largestReal(ws []core.Workload) int {
	best := -1
	for i, w := range ws {
		if !w.Virtual && (best < 0 || w.Bytes() > ws[best].Bytes()) {
			best = i
		}
	}
	return best
}
