package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/elem"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// Manager–worker rounds: every worker sends faninBytes of canonical
// every-other-double payload with SendType to rank 0, which receives
// them all with AnySource; an Allreduce of faninDoubles closes the
// round. This is the only workload on the wildcard matching path and
// on a collective.
const (
	faninBytes   = 8 << 10
	faninDoubles = 128
	faninTag     = 7
)

type fanin struct {
	ranks, rounds int
	fill          []byte      // FillPattern seed of each rank's source buffer
	contrib       [][]float64 // each rank's Allreduce contribution
	sum           []float64   // the expected Allreduce result
}

// newFanin draws every payload pattern and reduction operand from
// seed. Operands are small integers, so any summation order gives the
// exact expected sum.
func newFanin(seed uint64, ranks, rounds int) *fanin {
	rng := rand.New(rand.NewPCG(seed, 3))
	f := &fanin{ranks: ranks, rounds: rounds, fill: make([]byte, ranks),
		contrib: make([][]float64, ranks), sum: make([]float64, faninDoubles)}
	for r := range f.fill {
		f.fill[r] = byte(rng.IntN(256))
		f.contrib[r] = make([]float64, faninDoubles)
		for i := range f.contrib[r] {
			v := float64(rng.IntN(1 << 20))
			f.contrib[r][i] = v
			f.sum[i] += v
		}
	}
	return f
}

func (f *fanin) unit(log *traceLog) unit {
	u := unit{attempted: int64((f.ranks - 1) * f.rounds)}
	start := time.Now()
	ty, err := datatype.Vector(faninBytes/8, 1, 2, datatype.Float64)
	if err == nil {
		err = ty.Commit()
	}
	if err != nil {
		u.wrong = append(u.wrong, err.Error())
		return u
	}
	need := int(ty.TrueLB() + ty.TrueExtent())

	w := newWorld(f.ranks, log)
	var lat, vt []float64 // rank 0: host time and virtual completion time of each receive
	var order []int64     // rank 0: the source each receive matched
	final := make([]float64, f.ranks)
	results := make([]float64, f.ranks) // first element of each rank's last Allreduce result
	err = mpi.Run(f.ranks, mpi.Options{Profile: perfmodel.Generic(), WallLimit: wallLimit}, func(c *mpi.Comm) (err error) {
		defer w.abortOn(&err)
		rank := c.Rank()
		tr := w.trs[rank]
		src := buf.AllocAligned(need)
		src.FillPattern(f.fill[rank])
		send, recv := elem.Float64s(f.contrib[rank]), buf.Alloc(faninDoubles*8)
		var in buf.Block
		var want []buf.Block
		var seen []int64
		if rank == 0 {
			in = buf.AllocAligned(faninBytes)
			want = make([]buf.Block, f.ranks)
			for r := 1; r < f.ranks; r++ {
				s := buf.AllocAligned(need)
				s.FillPattern(f.fill[r])
				want[r] = buf.Alloc(faninBytes)
				if _, err := ty.Pack(s, 1, want[r]); err != nil {
					return err
				}
			}
			seen = make([]int64, f.ranks)
			lat = make([]float64, 0, (f.ranks-1)*f.rounds)
			vt = make([]float64, 0, (f.ranks-1)*f.rounds)
			order = make([]int64, 0, (f.ranks-1)*f.rounds)
		}
		if err := w.begin(c, func() { u.setup = time.Since(start) }); err != nil {
			return err
		}
		for round := int64(0); round < int64(f.rounds); round++ {
			rs := tr.begin(spanRound, round)
			if rank == 0 {
				for k := 1; k < f.ranks; k++ {
					t0 := time.Now()
					sp := tr.begin(spanRecv, round)
					st, err := c.Recv(in, mpi.AnySource, faninTag)
					tr.end(sp)
					dt := time.Since(t0)
					if err != nil {
						return err
					}
					lat = append(lat, us(dt))
					vt = append(vt, c.Wtime())
					order = append(order, int64(st.Source))
					if st.Source < 1 || st.Source >= f.ranks || seen[st.Source] == round+1 || st.Count != faninBytes {
						w.failf("round %d: unexpected receive %+v", round, st)
						continue
					}
					seen[st.Source] = round + 1
					if !buf.Equal(in, want[st.Source]) {
						w.failf("round %d: payload from rank %d differs", round, st.Source)
					}
				}
			} else {
				sp := tr.begin(spanSendType, round)
				err := c.SendType(src, 1, ty, 0, faninTag)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			if err := f.allreduce(c, w, tr, round, send, recv, &u); err != nil {
				return err
			}
			tr.end(rs)
		}
		final[rank], results[rank] = c.Wtime(), elem.Float64(recv, 0)
		if err := w.pause(func() { u.heapLive = liveHeap() }); err != nil {
			return err
		}
		return w.end(c, &u)
	})
	w.finish(&u, log)
	if err != nil {
		u.wrong = append(u.wrong, fmt.Sprintf("fan-in: %v", err))
		return u
	}
	u.lat, u.completed = lat, int64(len(lat))
	u.layer.bytes = u.completed * faninBytes
	d := newDigests()
	for i := range order {
		d[0].i64(order[i])
		d.op(vt[i])
	}
	for r := range final {
		d.result(final[r])
		d.result(results[r])
	}
	d.exact(w.net, w.mEnd)
	u.digest = d.sums()
	return u
}

// allreduce closes a round and checks the sum on every rank. A traced
// run brackets the last round's Allreduce with gates to count its heap
// allocations; one round per unit keeps the gates' cost out of the
// other rounds.
func (f *fanin) allreduce(c *mpi.Comm, w *world, tr *tracer, round int64, send, recv buf.Block, u *unit) error {
	counted := tr != nil && round == int64(f.rounds-1)
	if counted {
		if err := w.g.wait(func() { w.mark = mallocs() }); err != nil {
			return err
		}
	}
	sp := tr.begin(spanAllreduce, round)
	err := c.Allreduce(send, recv, faninDoubles, mpi.OpSum)
	tr.end(sp)
	if err != nil {
		return err
	}
	if counted {
		if err := w.g.wait(func() {
			u.layer.collAllocs += mallocs() - w.mark
			u.layer.collCalls += int64(f.ranks)
		}); err != nil {
			return err
		}
	}
	for i, want := range f.sum {
		if got := elem.Float64(recv, i); got != want {
			w.failf("rank %d round %d: Allreduce element %d = %v, want %v", c.Rank(), round, i, got, want)
			break
		}
	}
	return nil
}
