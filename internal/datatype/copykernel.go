package datatype

import (
	"fmt"
	"unsafe"
)

// This file implements the two copy kernels every compiled plan
// executor and the fused transfer engine bottom out in.
//
// copyRun moves one run of arbitrary length. The runs a non-contiguous
// layout decomposes into are mostly short — the paper's canonical case
// is an 8-byte double every 16 bytes — and at those lengths the
// per-call dispatch of the runtime memmove costs more than the move
// itself. copyRun moves whole machine words instead of bytes: an
// aligned fast path issues true 8-byte (or 4-byte) loads and stores, a
// mutually-misaligned path falls back to alignment-free [8]byte array
// moves (which the compiler lowers to wide instructions on the targets
// we care about and to safe byte sequences elsewhere), and a byte tail
// finishes the 1–7 remaining bytes.
//
// moveRuns moves n runs of one element width W (4, 8 or 16 bytes:
// float, double, double complex) between two strided sequences; a
// packed stream is the sequence whose step is the width. It is the
// single strided mover behind the stride, block and fused-stride
// kernels, and MoveStrided routes other widths to a copyRun loop.
//
// Contract: dst and src must not overlap (both kernels copy forward
// and word-granular); callers owning potentially-aliased buffers must
// use the staged path. Bounds are checked once per call, never per
// access: copyRun reslices both sides to n bytes, and moveRuns checks
// that the first and last run of each sequence lie inside its slice
// before walking raw pointers. A violating caller panics instead of
// corrupting memory.

// longRunCopy is the run length beyond which the runtime memmove —
// with its vectorised bulk loops — wins over the word loop and the
// call overhead is amortised anyway.
const longRunCopy = 256

// copyRun copies n bytes from src to dst, word-wide. See the file
// comment for the overlap and bounds contract.
func copyRun(dst, src []byte, n int64) {
	if n <= 0 {
		return
	}
	dst, src = dst[:n], src[:n] // one bounds check; panics on misuse
	if n >= longRunCopy {
		copy(dst, src)
		return
	}
	dp := unsafe.Pointer(&dst[0])
	sp := unsafe.Pointer(&src[0])
	var i int64
	switch {
	case (uintptr(dp)^uintptr(sp))&7 == 0:
		// Co-aligned mod 8: a byte head brings both pointers to an
		// 8-byte boundary, then true word loads/stores.
		for ; i < n && uintptr(unsafe.Add(dp, i))&7 != 0; i++ {
			dst[i] = src[i]
		}
		for ; i+32 <= n; i += 32 {
			*(*uint64)(unsafe.Add(dp, i)) = *(*uint64)(unsafe.Add(sp, i))
			*(*uint64)(unsafe.Add(dp, i+8)) = *(*uint64)(unsafe.Add(sp, i+8))
			*(*uint64)(unsafe.Add(dp, i+16)) = *(*uint64)(unsafe.Add(sp, i+16))
			*(*uint64)(unsafe.Add(dp, i+24)) = *(*uint64)(unsafe.Add(sp, i+24))
		}
		for ; i+8 <= n; i += 8 {
			*(*uint64)(unsafe.Add(dp, i)) = *(*uint64)(unsafe.Add(sp, i))
		}
	case (uintptr(dp)^uintptr(sp))&3 == 0:
		// Co-aligned mod 4 only: 4-byte words after a byte head.
		for ; i < n && uintptr(unsafe.Add(dp, i))&3 != 0; i++ {
			dst[i] = src[i]
		}
		for ; i+4 <= n; i += 4 {
			*(*uint32)(unsafe.Add(dp, i)) = *(*uint32)(unsafe.Add(sp, i))
		}
	default:
		// Mutually misaligned: [8]byte has alignment 1, so these array
		// moves are legal at any address on every platform.
		for ; i+8 <= n; i += 8 {
			*(*[8]byte)(unsafe.Add(dp, i)) = *(*[8]byte)(unsafe.Add(sp, i))
		}
	}
	if i+4 <= n {
		*(*[4]byte)(unsafe.Add(dp, i)) = *(*[4]byte)(unsafe.Add(sp, i))
		i += 4
	}
	for ; i < n; i++ {
		dst[i] = src[i]
	}
}

// MoveStrided moves n runs of size bytes from src (run k at
// so+k*sStep) to dst (run k at do+k*dStep): the canonical widths
// through moveRuns, any other through one copyRun per run. It is the
// strided mover of every plan kernel and of core's user copy loop;
// dst and src must not overlap, and a run outside either slice panics.
func MoveStrided(dst []byte, do, dStep int64, src []byte, so, sStep, size, n int64) {
	switch size {
	case 4:
		moveRuns[[4]byte](dst, do, dStep, src, so, sStep, n)
	case 8:
		moveRuns[[8]byte](dst, do, dStep, src, so, sStep, n)
	case 16:
		moveRuns[[16]byte](dst, do, dStep, src, so, sStep, n)
	default:
		for ; n > 0; n-- {
			copyRun(dst[do:], src[so:], size)
			do += dStep
			so += sStep
		}
	}
}

// moveRuns moves n runs of one W-sized element from src (run k at
// so+k*sStep) to dst (run k at do+k*dStep). Both extents are checked
// once, so the unrolled loop is bare loads and stores; offsets are
// advanced as integers and turned into pointers only for runs inside
// the checked extents.
func moveRuns[W [4]byte | [8]byte | [16]byte](dst []byte, do, dStep int64, src []byte, so, sStep, n int64) {
	if n <= 0 {
		return
	}
	size := int64(unsafe.Sizeof(*new(W)))
	if !runsFit(int64(len(dst)), do, dStep, size, n) || !runsFit(int64(len(src)), so, sStep, size, n) {
		panic(fmt.Sprintf("datatype: %d runs of %d bytes out of range: dst[%d+k*%d] of %d, src[%d+k*%d] of %d",
			n, size, do, dStep, len(dst), so, sStep, len(src)))
	}
	d, s := unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src))
	for ; n >= 4; n -= 4 {
		*(*W)(unsafe.Add(d, do)) = *(*W)(unsafe.Add(s, so))
		*(*W)(unsafe.Add(d, do+dStep)) = *(*W)(unsafe.Add(s, so+sStep))
		*(*W)(unsafe.Add(d, do+2*dStep)) = *(*W)(unsafe.Add(s, so+2*sStep))
		*(*W)(unsafe.Add(d, do+3*dStep)) = *(*W)(unsafe.Add(s, so+3*sStep))
		do += 4 * dStep
		so += 4 * sStep
	}
	for ; n > 0; n-- {
		*(*W)(unsafe.Add(d, do)) = *(*W)(unsafe.Add(s, so))
		do += dStep
		so += sStep
	}
}

// runsFit reports whether n >= 1 runs of size bytes, the k-th at
// off+k*step, all lie inside a slice of length bytes. The first run is
// checked directly; the last by comparing n-1 against the whole number
// of steps that fit, a division, so no product can overflow.
func runsFit(length, off, step, size, n int64) bool {
	if off < 0 || off > length-size {
		return false
	}
	switch {
	case step > 0:
		return n-1 <= (length-size-off)/step
	case step < 0:
		// -step wraps only at math.MinInt64, where off/-step is 0
		// and the comparison still admits exactly one run.
		return n-1 <= off/-step
	}
	return true
}
