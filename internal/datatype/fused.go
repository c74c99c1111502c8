package datatype

import (
	"fmt"
	"sync"

	"repro/internal/buf"
)

// This file implements the fused scatter/gather transfer engine: a
// resumable segment iterator over a compiled plan's packed stream, a
// pair iterator that zips two plans covering the same stream, and
// FusedCopy, which moves a message from one user layout straight into
// another in a single pass — no packed staging buffer, no second pass
// over the payload. It is the engine behind the mpi layer's fused
// rendezvous (sendv): the paper's central finding is that the software
// copy — not the wire — dominates non-contiguous sends, and the staged
// pack→staging→unpack pipeline reads and writes every payload byte
// twice. The fused pass does it once.

// SegIter enumerates the contiguous (userOff, len) runs of a compiled
// plan's packed stream in packed order. It is resumable: Seek
// positions it at any packed offset in O(log segments) (closed form
// for stride plans, binary search for gather tables), after which
// Run/Advance walk forward in O(1) per run. The zero value is not
// usable; obtain one from Plan.Segments.
type SegIter struct {
	p *Plan

	pos  int64 // packed position of the iterator head
	inst int64 // current instance
	j    int64 // run (stride) / segment (gather) index within instance
	off  int64 // bytes consumed within the current run
}

// Segments returns a segment iterator positioned at the start of the
// plan's packed stream.
func (p *Plan) Segments() SegIter {
	it := SegIter{p: p}
	it.SeekTo(0)
	return it
}

// SeekTo positions the iterator at packed offset pos (clamped to the
// stream length).
func (it *SegIter) SeekTo(pos int64) {
	p := it.p
	if pos >= p.total {
		pos = p.total
	}
	it.pos = pos
	it.inst, it.j, it.off = 0, 0, 0
	if pos >= p.total || p.kernel == KernelContig {
		return
	}
	pr := p.prog
	it.inst = pos / pr.instSize
	rem := pos - it.inst*pr.instSize
	switch p.kernel {
	case KernelStride:
		it.j = rem / pr.runLen
		it.off = rem - it.j*pr.runLen
	case KernelBlock:
		// Flat run index; Run decomposes it into the block levels.
		it.j = rem / pr.canon.runLen
		it.off = rem - it.j*pr.canon.runLen
	case KernelGather:
		if pr.uniform > 0 {
			it.j = rem / pr.uniform
			it.off = rem - it.j*pr.uniform
			return
		}
		lo, hi := 0, len(pr.segs)
		for lo < hi {
			mid := (lo + hi) / 2
			if pr.segs[mid].pos+pr.segs[mid].length > rem {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		it.j = int64(lo)
		it.off = rem - pr.segs[lo].pos
	}
}

// Pos returns the packed offset of the iterator head.
func (it *SegIter) Pos() int64 { return it.pos }

// Run returns the user offset and remaining length of the run the
// iterator head sits in. A zero length means the stream is exhausted.
func (it *SegIter) Run() (off, n int64) {
	p := it.p
	if it.pos >= p.total {
		return 0, 0
	}
	switch p.kernel {
	case KernelContig:
		return p.contigOff + it.pos, p.total - it.pos
	case KernelStride:
		pr := p.prog
		return it.inst*pr.ext + pr.start + it.j*pr.step + it.off, pr.runLen - it.off
	case KernelBlock:
		pr := p.prog
		return it.inst*pr.ext + pr.canon.offsetOf(it.j) + it.off, pr.canon.runLen - it.off
	default: // KernelGather
		pr := p.prog
		s := pr.segs[it.j]
		return it.inst*pr.ext + s.off + it.off, s.length - it.off
	}
}

// Advance consumes n bytes of the current run; n must not exceed the
// run remainder Run reported. Runs roll over to the next segment and
// instance automatically.
func (it *SegIter) Advance(n int64) {
	it.pos += n
	it.off += n
	p := it.p
	if it.pos >= p.total || p.kernel == KernelContig {
		return
	}
	pr := p.prog
	var runLen int64
	switch p.kernel {
	case KernelStride:
		runLen = pr.runLen
	case KernelBlock:
		runLen = pr.canon.runLen
	default:
		runLen = pr.segs[it.j].length
	}
	if it.off < runLen {
		return
	}
	it.off = 0
	it.j++
	var runs int64
	switch p.kernel {
	case KernelStride:
		runs = pr.runs
	case KernelBlock:
		runs = pr.canon.runsPerInst()
	default:
		runs = int64(len(pr.segs))
	}
	if it.j >= runs {
		it.j = 0
		it.inst++
	}
}

// PairIter zips the packed streams of two plans: each Next yields the
// longest (srcOff, dstOff, len) span over which both layouts are
// contiguous, in packed order, up to the shorter stream's length.
// This is the schedule a fused scatter/gather transfer executes.
type PairIter struct {
	src, dst SegIter
	limit    int64
	pos      int64
}

// NewPairIter builds the pair iterator for a source and destination
// plan. The iteration covers min(src.Bytes(), dst.Bytes()) packed
// bytes.
func NewPairIter(src, dst *Plan) PairIter {
	limit := src.total
	if dst.total < limit {
		limit = dst.total
	}
	return PairIter{src: src.Segments(), dst: dst.Segments(), limit: limit}
}

// NewPairIterRange builds a pair iterator over the packed byte range
// [lo, hi): both sides seek to lo in O(log segments) and Next yields
// spans until hi — the schedule of one worker's share of a parallel
// fused pass.
func NewPairIterRange(src, dst *Plan, lo, hi int64) PairIter {
	it := PairIter{src: src.Segments(), dst: dst.Segments(), limit: hi, pos: lo}
	it.src.SeekTo(lo)
	it.dst.SeekTo(lo)
	return it
}

// Remaining returns the packed bytes the iterator has not yielded yet.
func (it *PairIter) Remaining() int64 { return it.limit - it.pos }

// Next returns the next fused run: srcOff/dstOff are user-buffer
// offsets, n the span length. ok is false when the schedule is
// exhausted.
func (it *PairIter) Next() (srcOff, dstOff, n int64, ok bool) {
	if it.pos >= it.limit {
		return 0, 0, 0, false
	}
	so, sn := it.src.Run()
	do, dn := it.dst.Run()
	n = sn
	if dn < n {
		n = dn
	}
	if r := it.limit - it.pos; r < n {
		n = r
	}
	it.src.Advance(n)
	it.dst.Advance(n)
	it.pos += n
	return so, do, n, true
}

// Validate checks that a user buffer can carry the plan's message —
// the same bounds rule Pack/Unpack enforce — without executing
// anything. Protocol layers call it before committing to a transfer
// (e.g. before a rendezvous envelope enters the fabric), so argument
// errors surface locally instead of on the peer.
func (p *Plan) Validate(user buf.Block) error {
	return p.t.checkUse(int(p.count), user.Len())
}

// FusedDstSafe reports whether the plan can serve as the destination
// of a fused transfer: repeated instances must not overlap in the user
// buffer, so the packed-order single pass writes every byte exactly
// once. Plans over types whose extent was resized under the instance
// span interleave their instances; those take the staged path, whose
// sequential unpack defines the overlap semantics.
func (p *Plan) FusedDstSafe() bool {
	if p.count <= 1 || p.total == 0 {
		return true
	}
	t := p.t
	return t.Extent() >= t.r.last()-t.r.first()
}

// FusedCopy moves the packed-stream intersection of (srcPlan over src)
// into (dstPlan over dst) in one pass, with no intermediate staging:
// the compiled equivalent of Pack into a scratch buffer followed by
// Unpack, at half the memory traffic. It returns the bytes
// transferred: min(srcPlan.Bytes(), dstPlan.Bytes()).
//
// src and dst must not alias (see buf.Overlaps) and dstPlan must be
// FusedDstSafe; callers fall back to the staged path otherwise.
// Virtual participants record the transfer without moving bytes.
func FusedCopy(srcPlan, dstPlan *Plan, src, dst buf.Block) (int64, error) {
	if err := srcPlan.t.checkUse(int(srcPlan.count), src.Len()); err != nil {
		return 0, fmt.Errorf("fused source: %w", err)
	}
	if err := dstPlan.t.checkUse(int(dstPlan.count), dst.Len()); err != nil {
		return 0, fmt.Errorf("fused destination: %w", err)
	}
	total := srcPlan.total
	if dstPlan.total < total {
		total = dstPlan.total
	}
	if total == 0 {
		return 0, nil
	}
	// The parallel decision depends only on the size, so virtual
	// transfers are attributed exactly as their real counterparts.
	parallel := total >= parallelPackThreshold() && workersFor(total) > 1
	if !src.IsVirtual() && !dst.IsVirtual() {
		fusedExec(srcPlan, dstPlan, src, dst, total, parallel)
	}
	recordFused(total, parallel)
	return total, nil
}

// fusedExec dispatches the one-pass transfer to the tightest executor
// for the kernel pairing, splitting the packed range across goroutines
// when parallel is set (every executor can start mid-stream, so the
// split needs no segment alignment). A contiguous side turns the
// transfer into a plain pack or unpack running the compiled kernels
// against the peer's buffer window; a stride pair runs the fused
// stride kernel; anything involving a gather table walks the generic
// pair schedule.
func fusedExec(srcPlan, dstPlan *Plan, src, dst buf.Block, total int64, parallel bool) {
	if parallel {
		fusedExecParallel(srcPlan, dstPlan, src, dst, total, workersFor(total))
		return
	}
	switch {
	case dstPlan.kernel == KernelContig:
		// Gather straight into the destination window: the source
		// plan's own compiled kernel, no staging in between.
		stream := dst.Slice(int(dstPlan.contigOff), int(total))
		srcPlan.runRange(src, stream, 0, total, 0, packDirection)
	case srcPlan.kernel == KernelContig:
		// Scatter straight out of the source window.
		stream := src.Slice(int(srcPlan.contigOff), int(total))
		dstPlan.runRange(dst, stream, 0, total, 0, unpackDirection)
	case srcPlan.kernel == KernelStride && dstPlan.kernel == KernelStride:
		fusedStrideStride(dst.Bytes(), src.Bytes(), srcPlan.prog, dstPlan.prog, total)
	default:
		fusedGeneric(dst.Bytes(), src.Bytes(), srcPlan, dstPlan)
	}
}

// fusedExecParallel splits the fused pass's packed byte range across w
// workers. The destination plan is FusedDstSafe (callers fall back to
// the staged path otherwise), so distinct packed ranges write distinct
// user bytes and the workers need no synchronisation beyond the final
// join — the same disjointness argument as runParallelRange.
func fusedExecParallel(srcPlan, dstPlan *Plan, src, dst buf.Block, total int64, w int) {
	share := total / int64(w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo := int64(i) * share
		hi := lo + share
		if i == w-1 {
			hi = total
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			fusedRange(srcPlan, dstPlan, src, dst, lo, hi, total)
		}(lo, hi)
	}
	wg.Wait()
}

// fusedRange executes the packed byte range [lo, hi) of the fused
// schedule: contiguous sides ride the compiled runRange kernels
// mid-stream, and layout×layout pairings walk seeked pair iterators.
func fusedRange(srcPlan, dstPlan *Plan, src, dst buf.Block, lo, hi, total int64) {
	switch {
	case dstPlan.kernel == KernelContig:
		stream := dst.Slice(int(dstPlan.contigOff), int(total))
		srcPlan.runRange(src, stream, lo, hi, 0, packDirection)
	case srcPlan.kernel == KernelContig:
		stream := src.Slice(int(srcPlan.contigOff), int(total))
		dstPlan.runRange(dst, stream, lo, hi, 0, unpackDirection)
	default:
		db, sb := dst.Bytes(), src.Bytes()
		it := NewPairIterRange(srcPlan, dstPlan, lo, hi)
		for {
			so, do, n, ok := it.Next()
			if !ok {
				return
			}
			copyRun(db[do:], sb[so:], n)
		}
	}
}

// fusedStrideStride is the fused kernel for a pair of regular run/gap
// layouts: both sides advance in closed form, so the schedule needs no
// segment tables and the canonical case — equal small runs on both
// sides, the paper's every-other-double exchanged between two strided
// layouts — moves whole words with no per-span dispatch.
func fusedStrideStride(db, sb []byte, sp, dp *planProg, total int64) {
	// Instance rollover: after the last run of an instance, the next
	// run starts at the next instance's first run.
	sAdj := sp.ext - sp.runs*sp.step
	dAdj := dp.ext - dp.runs*dp.step
	so, do := sp.start, dp.start
	var sJ, dJ int64
	if sp.runLen == dp.runLen {
		// Equal run lengths, as in the canonical every-other-double
		// exchange: spans never split a run, so batch them up to the
		// next instance rollover on either side and move each batch
		// with one strided move. Plan totals are multiples of the run
		// length, so no tail handling is needed.
		runLen := sp.runLen
		for pos := int64(0); pos < total; {
			batch := sp.runs - sJ
			if m := dp.runs - dJ; m < batch {
				batch = m
			}
			if m := (total - pos) / runLen; m < batch {
				batch = m
			}
			MoveStrided(db, do, dp.step, sb, so, sp.step, runLen, batch)
			so += batch * sp.step
			do += batch * dp.step
			pos += batch * runLen
			if sJ += batch; sJ == sp.runs {
				sJ = 0
				so += sAdj
			}
			if dJ += batch; dJ == dp.runs {
				dJ = 0
				do += dAdj
			}
		}
		return
	}
	var sOff, dOff int64
	for pos := int64(0); pos < total; {
		n := sp.runLen - sOff
		if m := dp.runLen - dOff; m < n {
			n = m
		}
		if m := total - pos; m < n {
			n = m
		}
		copyRun(db[do+dOff:], sb[so+sOff:], n)
		pos += n
		if sOff += n; sOff == sp.runLen {
			sOff = 0
			so += sp.step
			if sJ++; sJ == sp.runs {
				sJ = 0
				so += sAdj
			}
		}
		if dOff += n; dOff == dp.runLen {
			dOff = 0
			do += dp.step
			if dJ++; dJ == dp.runs {
				dJ = 0
				do += dAdj
			}
		}
	}
}

// fusedGeneric walks the pair schedule for kernel pairings involving
// a gather table. Table segments are typically longer than stride
// runs, so the per-span iterator bookkeeping amortises.
func fusedGeneric(db, sb []byte, srcPlan, dstPlan *Plan) {
	it := NewPairIter(srcPlan, dstPlan)
	for {
		so, do, n, ok := it.Next()
		if !ok {
			return
		}
		copyRun(db[do:], sb[so:], n)
	}
}
