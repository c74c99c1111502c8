package main

import (
	"fmt"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/simnet"
)

// The direct probes time one package's public function on the
// workload's own geometry, outside any simulated world, so a per-layer
// rate is measured without the rest of the stack around it.

// probeBytes is the work each payload size gets per kernel; probeMin
// the shortest host time the match probe runs for.
const (
	probeBytes = 32 << 20
	probeMin   = 200 * time.Millisecond
)

// rate runs op, which moves n bytes, until probeBytes have moved, and
// returns the bytes moved and the host time it took.
func rate(n int64, op func() error) (bytes int64, d time.Duration, err error) {
	t := time.Now()
	for bytes < probeBytes {
		if err := op(); err != nil {
			return 0, 0, err
		}
		bytes += n
	}
	return bytes, time.Since(t), nil
}

// kernelRates times buf.FillPattern on each payload's source buffer,
// buf.Equal on its packed payload, and the committed every-other-double
// type's Pack and Unpack between the two. sizes are packed payload
// bytes; all four rates are GB/s, zero when sizes is empty.
func kernelRates(sizes []int64) (fill, equal, pack, unpack float64, err error) {
	var total [4]int64
	var took [4]time.Duration
	for _, n := range sizes {
		ty, err := datatype.Vector(int(n/8), 1, 2, datatype.Float64)
		if err == nil {
			err = ty.Commit()
		}
		if err != nil {
			return 0, 0, 0, 0, err
		}
		src := buf.AllocAligned(int(ty.TrueLB() + ty.TrueExtent()))
		packed, again, out := buf.AllocAligned(int(n)), buf.AllocAligned(int(n)), buf.AllocAligned(src.Len())
		ops := [4]func() error{
			func() error { src.FillPattern(byte(n)); return nil },
			func() error {
				if !buf.Equal(packed, again) {
					return fmt.Errorf("buf.Equal: equal %d-byte blocks compare unequal", n)
				}
				return nil
			},
			func() error { _, err := ty.Pack(src, 1, packed); return err },
			func() error { _, err := ty.Unpack(packed, 1, out); return err },
		}
		moved := [4]int64{int64(src.Len()), n, n, n}
		// Pack once so Equal compares real payloads, then time in order.
		if _, err := ty.Pack(src, 1, packed); err != nil {
			return 0, 0, 0, 0, err
		}
		buf.Copy(again, packed)
		for k, op := range ops {
			b, d, err := rate(moved[k], op)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			total[k] += b
			took[k] += d
		}
	}
	var gbps [4]float64
	for k := range gbps {
		if took[k] > 0 {
			gbps[k] = float64(total[k]) / float64(took[k])
		}
	}
	return gbps[0], gbps[1], gbps[2], gbps[3], nil
}

// matchNs times Fabric.Deliver plus Fabric.Match on rank 0 of a ranks-
// endpoint fabric whose mailbox holds one envelope from every other
// rank, with wild of the matches using AnySource, and returns the host
// nanoseconds per delivered-and-matched envelope.
func matchNs(ranks int, wild float64) float64 {
	f := simnet.New(ranks)
	for s := 1; s < ranks; s++ {
		f.Deliver(0, &simnet.Message{Src: s, Tag: 1, Kind: simnet.KindEager, Bytes: 8})
	}
	ops := 0
	t := time.Now()
	for time.Since(t) < probeMin {
		for k := 0; k < 1000; k++ {
			src := 1 + ops%(ranks-1)
			f.Deliver(0, &simnet.Message{Src: src, Tag: 1, Kind: simnet.KindEager, Bytes: 8})
			// Spread wildcard matches evenly: op i is wild when the
			// running count floor(i·wild) steps up.
			if int(float64(ops+1)*wild) > int(float64(ops)*wild) {
				f.Match(0, 0, simnet.AnySource, 1)
			} else {
				f.Match(0, 0, src, 1)
			}
			ops++
		}
	}
	return float64(time.Since(t)) / float64(ops)
}
