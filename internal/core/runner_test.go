package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/vclock"
)

// state exposes the shared pairState behind any Runner to the tests;
// every runner embeds pairState, so the method is promoted.
func (ps *pairState) state() *pairState { return ps }

func stateOf(r Runner) *pairState {
	return r.(interface{ state() *pairState }).state()
}

// gatherReference is the copying scheme's user loop as a plain
// per-segment copy: one bounds-checked buf.CopyAt per segment of the
// layout. It is the oracle for gatherLoop, and it shares nothing with
// the datatype engine that check packs through.
func gatherReference(dst, src buf.Block, lay layout.Layout) {
	off := 0
	lay.ForEach(func(s layout.Segment) bool {
		buf.CopyAt(dst, off, src, int(s.Off), int(s.Len))
		off += int(s.Len)
		return true
	})
}

// TestGatherLoopMatchesSegmentCopy pins the copying scheme's gather:
// byte for byte the per-segment reference copy, and a virtual-clock
// charge of exactly the user loop's GatherCost, priced on a twin cache
// state that sees the same calls.
func TestGatherLoopMatchesSegmentCopy(t *testing.T) {
	var ws []Workload
	for bl := 1; bl <= 3; bl++ {
		for stride := bl; stride <= bl+3; stride++ {
			for _, count := range []int{0, 1, 2, 3, 4, 5, 1023} {
				ws = append(ws, Workload{Count: count, BlockLen: bl, Stride: stride})
			}
		}
	}
	ws = append(ws, Workload{Count: 257, BlockLen: 2, Stride: 5, Jitter: 0.6})
	prof, err := perfmodel.ByName("skx-impi")
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, mpi.Options{Profile: prof}, func(c *mpi.Comm) error {
		twin := memsim.NewState(&c.Profile().Mem)
		for _, w := range ws {
			var ps pairState
			if err := ps.init(c, w, 0); err != nil {
				return err
			}
			lay := w.Layout()
			want := buf.Alloc(int(w.Bytes()))
			got := buf.AllocAligned(int(w.Bytes()))
			// Both destinations start from the same non-zero bytes, so
			// a run the gather skips shows up as a difference.
			want.FillPattern(0x3C)
			got.FillPattern(0x3C)
			gatherReference(want, ps.src, lay)
			// Twice: cold, then with the source and destination warm.
			for pass := 0; pass < 2; pass++ {
				charge := vclock.FromSeconds(twin.GatherCost(ps.src.Region(), got.Region(), layout.Describe(lay)))
				before := c.Clock().Now()
				ps.gatherLoop(got)
				if d := vclock.Duration(c.Clock().Now() - before); d != charge {
					return fmt.Errorf("%+v pass %d: charged %v, want GatherCost %v", w, pass, d, charge)
				}
				if !buf.Equal(got, want) {
					return fmt.Errorf("%+v pass %d: gather differs from the per-segment copy", w, pass)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckAgainstUntouchedSource pins what check relies on when it
// packs the receiver's own source: for every scheme, ping-pongs leave
// src holding the srcSeed pattern on both ranks; Check accepts the
// untouched receive and rejects it once any one of its bytes is
// flipped.
func TestCheckAgainstUntouchedSource(t *testing.T) {
	ws := []Workload{
		{Count: 300, BlockLen: 1, Stride: 2},
		{Count: 20000, BlockLen: 1, Stride: 2}, // past the eager limit
		{Count: 300, BlockLen: 2, Stride: 3, Jitter: 0.5},
	}
	prof, err := perfmodel.ByName("skx-impi")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		for _, w := range ws {
			if s == Subarray && w.Jitter > 0 {
				continue // a subarray cannot describe a jittered layout
			}
			t.Run(fmt.Sprintf("%v/%d/jitter%v", s, w.Bytes(), w.Jitter), func(t *testing.T) {
				err := mpi.Run(2, mpi.Options{Profile: prof, WallLimit: time.Minute}, func(c *mpi.Comm) error {
					return pingPongThenCheck(c, s, w)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func pingPongThenCheck(c *mpi.Comm, s Scheme, w Workload) error {
	r, err := NewRunner(s)
	if err != nil {
		return err
	}
	if err := r.Setup(c, w, 1-c.Rank()); err != nil {
		return err
	}
	c.Barrier()
	for rep := 0; rep < 3; rep++ {
		if c.Rank() == 0 {
			err = r.Ping()
		} else {
			err = r.Pong()
		}
		if err != nil {
			return err
		}
	}
	// Both ranks reach Teardown and the closing barrier whatever the
	// local checks find, so a failure cannot leave the peer blocked.
	checkErr := checkRank(c.Rank(), r)
	if err := r.Teardown(); err != nil {
		return err
	}
	c.Barrier()
	return checkErr
}

// checkRank runs the local checks of pingPongThenCheck on one rank.
func checkRank(rank int, r Runner) error {
	ps := stateOf(r)
	if err := ps.src.VerifyPattern(srcSeed); err != nil {
		return fmt.Errorf("rank %d: source no longer holds the pattern: %w", rank, err)
	}
	if rank != 1 {
		return nil
	}
	if err := r.Check(); err != nil {
		return fmt.Errorf("untouched receive rejected: %w", err)
	}
	got := ps.recvbuf.Bytes()
	for _, i := range []int{0, len(got) / 2, len(got) - 1} {
		got[i] ^= 0x01
		err := r.Check()
		got[i] ^= 0x01
		if err == nil {
			return fmt.Errorf("check accepted a receive with byte %d flipped", i)
		}
	}
	if err := r.Check(); err != nil {
		return fmt.Errorf("restored receive rejected: %w", err)
	}
	return nil
}

// BenchmarkCopyingGather measures the copying scheme's user loop on the
// paper's canonical layout: every other double, 16 MiB of payload.
func BenchmarkCopyingGather(b *testing.B) {
	w := ForBytes(16 << 20)
	err := mpi.Run(1, mpi.Options{}, func(c *mpi.Comm) error {
		var ps pairState
		if err := ps.init(c, w, 0); err != nil {
			return err
		}
		dst := buf.AllocAligned(int(w.Bytes()))
		b.SetBytes(w.Bytes())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps.gatherLoop(dst)
		}
		b.StopTimer()
		want := buf.Alloc(int(w.Bytes()))
		gatherReference(want, ps.src, w.Layout())
		if !buf.Equal(dst, want) {
			return errors.New("gather differs from the per-segment copy")
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
