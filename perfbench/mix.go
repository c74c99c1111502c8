package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// mix is the E20 job-mix regime: the world splits into ring jobs and
// every rank keeps inFlight typed transfers outstanding to its ring
// neighbours per round, posted, then a world barrier, then drained, as
// harness.RunJobMix does. Payloads are 1 MiB virtual every-other-double
// layouts on the Generic profile, so no real bytes move: host time is
// the rendezvous protocol, matching, goroutine handoffs and allocation.
// With faultRate > 0 the fabric injects faults and every transfer goes
// through checksums, NACK bitmaps and selective retransmission.
type mix struct {
	ranks, jobs, inFlight, rounds int
	bytes                         int64
	keys                          []int // Split key per world rank: the ring order within its job
	faultSeed                     uint64
	faultRate                     float64
}

// newMix draws each job's ring order from seed; under faults the seed
// also seeds the fault plan.
func newMix(seed uint64, ranks, rounds int, faultRate float64) *mix {
	return &mix{ranks: ranks, jobs: 8, inFlight: 4, rounds: rounds, bytes: 1 << 20,
		keys: rand.New(rand.NewPCG(seed, 2)).Perm(ranks), faultSeed: seed, faultRate: faultRate}
}

func (m *mix) unit(log *traceLog) unit {
	u := unit{attempted: int64(m.ranks * m.inFlight * m.rounds)}
	start := time.Now()
	elems := int(m.bytes / 8)
	ty, err := datatype.Vector(elems, 1, 2, datatype.Float64)
	if err == nil {
		err = ty.Commit()
	}
	if err != nil {
		u.wrong = append(u.wrong, err.Error())
		return u
	}
	need := int(ty.TrueLB() + ty.TrueExtent())
	var faults *simnet.FaultPlan
	if m.faultRate > 0 {
		faults = simnet.UniformFaults(m.faultSeed, m.faultRate)
	}

	w := newWorld(m.ranks, log)
	lat := make([][]float64, m.ranks)
	vt := make([][]float64, m.ranks) // virtual completion time of each receive, from its round's start
	final := make([]float64, m.ranks)
	err = mpi.Run(m.ranks, mpi.Options{Profile: perfmodel.Generic(), WallLimit: wallLimit, Faults: faults}, func(c *mpi.Comm) (err error) {
		defer w.abortOn(&err)
		rank := c.Rank()
		tr := w.trs[rank]
		sp := tr.begin(spanSplit, 0)
		job, err := c.Split(rank%m.jobs, m.keys[rank])
		tr.end(sp)
		if err != nil {
			return err
		}
		right := (job.Rank() + 1) % job.Size()
		left := (job.Rank() - 1 + job.Size()) % job.Size()
		send := buf.Virtual(need)
		recvs := make([]buf.Block, m.inFlight)
		for i := range recvs {
			recvs[i] = buf.Virtual(need)
		}
		rreqs := make([]*mpi.Request, m.inFlight)
		sreqs := make([]*mpi.Request, m.inFlight)
		posted := make([]time.Time, m.inFlight)
		myLat := make([]float64, 0, m.rounds*m.inFlight)
		myVT := make([]float64, 0, m.rounds*m.inFlight)
		if err := w.begin(c, func() { u.setup = time.Since(start) }); err != nil {
			return err
		}
		for round := int64(0); round < int64(m.rounds); round++ {
			rs := tr.begin(spanRound, round)
			v0 := c.Wtime()
			for i := range rreqs {
				posted[i] = time.Now()
				sp := tr.begin(spanIrecv, round)
				rreqs[i], err = job.IrecvType(recvs[i], 1, ty, left, i)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			for i := range sreqs {
				sp := tr.begin(spanIsendv, round)
				sreqs[i], err = job.IsendvType(send, 1, ty, right, i)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			sp := tr.begin(spanBarrier, round)
			c.Barrier()
			tr.end(sp)
			for i, r := range rreqs {
				sp := tr.begin(spanWait, round)
				st, err := r.Wait()
				tr.end(sp)
				if err != nil {
					return err
				}
				myLat = append(myLat, us(time.Since(posted[i])))
				myVT = append(myVT, c.Wtime()-v0)
				if st.Source != left || st.Tag != i || st.Count != int64(elems)*8 {
					w.failf("rank %d round %d: received %+v, want source %d tag %d count %d", rank, round, st, left, i, elems*8)
				}
			}
			for _, r := range sreqs {
				sp := tr.begin(spanWait, round)
				_, err := r.Wait()
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			tr.end(rs)
		}
		lat[rank], vt[rank], final[rank] = myLat, myVT, c.Wtime()
		if err := w.pause(func() { u.heapLive = liveHeap() }); err != nil {
			return err
		}
		return w.end(c, &u)
	})
	w.finish(&u, log)
	if err != nil {
		u.wrong = append(u.wrong, fmt.Sprintf("job mix: %v", err))
		return u
	}
	d := newDigests()
	for r := range lat {
		u.lat = append(u.lat, lat[r]...)
		u.completed += int64(len(lat[r]))
		for _, t := range vt[r] {
			d.op(t)
		}
		d.result(final[r])
	}
	d.exact(w.net, w.mEnd)
	u.digest = d.sums()
	u.layer.bytes = u.completed * int64(elems) * 8
	return u
}
