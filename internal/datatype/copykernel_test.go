package datatype

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// byteCopyOracle is the definitional byte loop copyRun must match.
func byteCopyOracle(dst, src []byte, n int64) {
	for i := int64(0); i < n; i++ {
		dst[i] = src[i]
	}
}

// TestCopyRunMatchesByteLoop sweeps every (srcOffset, dstOffset,
// length) combination over the alignment-relevant range — co-aligned,
// co-aligned mod 4 only, and mutually misaligned pairs, with 1–7-byte
// tails — and requires copyRun to reproduce the byte loop exactly,
// without touching a byte outside [dstOff, dstOff+n).
func TestCopyRunMatchesByteLoop(t *testing.T) {
	const room = 600
	lengths := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 65, 100, 255, longRunCopy - 1, longRunCopy, longRunCopy + 17}
	src := make([]byte, room)
	for i := range src {
		src[i] = byte(i*131 + 7)
	}
	for srcOff := 0; srcOff < 9; srcOff++ {
		for dstOff := 0; dstOff < 9; dstOff++ {
			for _, n := range lengths {
				dst := make([]byte, room)
				want := make([]byte, room)
				for i := range dst {
					dst[i] = 0xCC
					want[i] = 0xCC
				}
				copyRun(dst[dstOff:], src[srcOff:], n)
				byteCopyOracle(want[dstOff:], src[srcOff:], n)
				if !bytes.Equal(dst, want) {
					t.Fatalf("copyRun(dstOff=%d, srcOff=%d, n=%d) differs from byte loop", dstOff, srcOff, n)
				}
			}
		}
	}
}

// TestCopyRunBoundsPanic pins the bounds contract: a run longer than
// either slice panics instead of corrupting memory.
func TestCopyRunBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("copyRun over-length did not panic")
		}
	}()
	copyRun(make([]byte, 4), make([]byte, 16), 8)
}

// stridedMovers are the moveRuns instantiations under test, with
// their element widths.
var stridedMovers = []struct {
	size int64
	move func(dst []byte, do, dStep int64, src []byte, so, sStep, n int64)
}{
	{4, moveRuns[[4]byte]},
	{8, moveRuns[[8]byte]},
	{16, moveRuns[[16]byte]},
}

// firstRunAt returns where a sequence of n runs step apart must start
// so that its lowest run lands at lo.
func firstRunAt(lo, step, n int64) int64 {
	if step < 0 && n > 0 {
		return lo - (n-1)*step
	}
	return lo
}

// TestMoveRunsMatchesCopyRun sweeps every element width, run counts
// 0–9 (every tail of the four-way unroll), forward, padded and
// backward steps on both sides, and unaligned start offsets, and
// requires moveRuns to reproduce one copyRun per run exactly, without
// touching a byte outside the destination runs.
func TestMoveRunsMatchesCopyRun(t *testing.T) {
	for _, m := range stridedMovers {
		w := m.size
		steps := []int64{w, 2 * w, 3*w + 1, -w, -(3*w + 1)}
		for n := int64(0); n <= 9; n++ {
			for _, dStep := range steps {
				for _, sStep := range steps {
					for _, lo := range []int64{0, 1, 3, 7} {
						span := func(step int64) int64 {
							if step < 0 {
								step = -step
							}
							return lo + 9*step + w + 5
						}
						src := make([]byte, span(sStep))
						for i := range src {
							src[i] = byte(i*131 + 7)
						}
						got := bytes.Repeat([]byte{0xCC}, int(span(dStep)))
						want := bytes.Clone(got)
						do, so := firstRunAt(lo, dStep, n), firstRunAt(lo+2, sStep, n)
						m.move(got, do, dStep, src, so, sStep, n)
						for k := int64(0); k < n; k++ {
							copyRun(want[do+k*dStep:], src[so+k*sStep:], w)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("moveRuns W=%d n=%d dStep=%d sStep=%d lo=%d differs from copyRun", w, n, dStep, sStep, lo)
						}
					}
				}
			}
		}
	}
}

// TestMoveRunsBoundsPanic pins the bounds-once contract: a sequence
// whose first or last run leaves either slice panics before any byte
// moves — guard bytes just outside the slices, still inside their
// backing arrays, stay untouched — and the extent check cannot be
// fooled by a run count whose (n-1)*step product wraps.
func TestMoveRunsBoundsPanic(t *testing.T) {
	const guard = 32
	for _, m := range stridedMovers {
		w := m.size
		for _, step := range []int64{w, 3*w + 1, -w, -(3*w + 1)} {
			abs := step
			if abs < 0 {
				abs = -abs
			}
			for _, n := range []int64{1, 2, 5} {
				fit := (n-1)*abs + w // bytes n runs occupy
				cases := []struct {
					name    string
					length  int64 // strided slice length
					off     int64 // first run offset
					wantErr bool
				}{
					{"exact fit", fit, firstRunAt(0, step, n), false},
					{"one byte short", fit - 1, firstRunAt(0, step, n), true},
					{"lowest run at -1", fit, firstRunAt(-1, step, n), true},
					{"highest run one past", fit, firstRunAt(1, step, n), true},
				}
				for _, c := range cases {
					for _, stridedDst := range []bool{true, false} {
						backing := bytes.Repeat([]byte{0xCC}, int(guard+c.length+guard))
						strided := backing[guard : guard+c.length]
						packed := make([]byte, n*w)
						for i := range packed {
							packed[i] = 0x5A
						}
						panicked := func() (p bool) {
							defer func() { p = recover() != nil }()
							if stridedDst {
								m.move(strided, c.off, step, packed, 0, w, n)
							} else {
								m.move(packed, 0, w, strided, c.off, step, n)
							}
							return false
						}()
						if panicked != c.wantErr {
							t.Fatalf("W=%d step=%d n=%d %s (strided dst %v): panicked=%v, want %v",
								w, step, n, c.name, stridedDst, panicked, c.wantErr)
						}
						if stridedDst {
							for i := 0; i < guard; i++ {
								if backing[i] != 0xCC || backing[len(backing)-1-i] != 0xCC {
									t.Fatalf("W=%d step=%d n=%d %s: a guard byte outside the slice was written", w, step, n, c.name)
								}
							}
						}
					}
				}
			}
		}
		// Run counts whose (n-1)*step wraps to a small offset.
		dst, src := make([]byte, 64), make([]byte, 64)
		for _, c := range []struct{ off, step, n int64 }{
			{0, w, 1<<62/(w/4) + 1},
			{0, 1 << 62, 5},
			{0, math.MaxInt64, 3},
			{48, -(1 << 62), 5},
			{48, math.MinInt64, 2},
		} {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				m.move(dst, c.off, c.step, src, 0, 0, c.n)
				return false
			}()
			if !panicked {
				t.Fatalf("W=%d off=%d step=%d n=%d: wrapped extent accepted", w, c.off, c.step, c.n)
			}
		}
	}
}

// BenchmarkCopyRunShort measures the word kernel on the short-run
// lengths the paper's layouts produce, against the runtime memmove.
func BenchmarkCopyRunShort(b *testing.B) {
	for _, n := range []int64{8, 12, 24, 56} {
		src := make([]byte, 4096)
		dst := make([]byte, 4096)
		b.Run(fmt.Sprintf("copyRun/%dB", n), func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				copyRun(dst[(i%64)*8:], src[(i%64)*8:], n)
			}
		})
		b.Run(fmt.Sprintf("memmove/%dB", n), func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				o := (i % 64) * 8
				copy(dst[o:o+int(n)], src[o:o+int(n)])
			}
		})
	}
}
