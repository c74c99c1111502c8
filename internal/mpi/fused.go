package mpi

import (
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// errNegativeCount mirrors the inline ErrCount wrapping of p2p.go.
func errNegativeCount(count int) error {
	return fmt.Errorf("%w: %d", ErrCount, count)
}

// This file implements the fused zero-copy rendezvous: the sendv
// path, where a plan-driven typed send copies directly from the
// sender's user layout into the receiver's user layout in one pass.
// The staged rendezvous moves every payload byte twice — pack into a
// staging buffer, unpack out of it — which is exactly the redundant
// software copy the paper blames for non-contiguous sends losing to
// the manual-copy bound. The fused path removes the staging buffer,
// the second pass, and the internal-chunk bookkeeping: the sender
// walks the pair schedule of the two compiled plans
// (datatype.FusedCopy) and the payload crosses each memory system
// once, like an XPMEM/CMA single-copy or a scatter-capable NIC.
//
// Fallbacks keep the semantics of the staged path byte-for-byte:
//
//   - eager-sized messages take the ordinary staged typed path (the
//     fused engine needs the rendezvous handshake to learn the
//     receiver's layout);
//   - receivers whose layout cannot legally take a one-pass scatter
//     (overlapping instances, uncompilable plans) stage as before;
//   - aliased sender/receiver buffers (a fused self-send) and
//     mismatched payload sizes run a sender-local staged emulation, so
//     the receiver still never unpacks.

// fusedDst is the receiver→sender descriptor of a typed rendezvous
// receive whose layout the sender may scatter into directly. It rides
// simnet.RdvMatch.FusedDst as an opaque value; only this package
// creates and consumes it.
type fusedDst struct {
	user  buf.Block
	plan  *datatype.Plan
	stats layout.Stats
	need  int64
}

// SendvType is the plan-driven fused send of a derived datatype, the
// "sendv" scheme: under the rendezvous protocol the payload moves
// straight from this rank's user layout into the receiver's buffer in
// a single compiled pass — no MPI-internal chunk buffers, no staging
// allocation, no receive-side unpack. Eager-sized messages fall back
// to the staged typed path, as do layouts the fused engine cannot
// serve (see the file comment); the call is then semantically
// identical to SendType.
func (c *Comm) SendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	return c.sendTypedFused(b, count, ty, dest, tag, sendFlags{})
}

// SsendvType is SendvType under forced rendezvous: even eager-sized
// payloads take the fused handshake path.
func (c *Comm) SsendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	return c.sendTypedFused(b, count, ty, dest, tag, sendFlags{forceRdv: true})
}

// IsendvType starts a non-blocking fused send with SendvType
// semantics, like an MPI_Isend that scatters straight into the typed
// receiver's layout: the envelope enters the fabric before the call
// returns (program order holds), the rendezvous completes in the
// background, and the fused path still performs zero staging
// allocations.
func (c *Comm) IsendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return c.startAsyncSend(func(cc *Comm, fl sendFlags) error {
		return cc.sendTypedFused(b, count, ty, dest, tag, fl)
	})
}

// IssendvType is IsendvType under forced rendezvous: even eager-sized
// payloads take the fused handshake path.
func (c *Comm) IssendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return c.startAsyncSend(func(cc *Comm, fl sendFlags) error {
		fl.forceRdv = true
		return cc.sendTypedFused(b, count, ty, dest, tag, fl)
	})
}

// sendTypedFused is the sender side of the fused rendezvous.
func (c *Comm) sendTypedFused(b buf.Block, count int, ty *datatype.Type, dest, tag int, fl sendFlags) error {
	p := c.prof
	n := ty.PackSize(count)
	if n == 0 || (!fl.forceRdv && c.eagerOK(n, fl.packed, !fl.asyncReturn && !b.IsVirtual())) {
		// Eager-sized (or empty): stage through the ordinary typed path.
		return c.sendTyped(b, count, ty, dest, tag, fl)
	}
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return err
	}
	if err := plan.Validate(b); err != nil {
		// Argument errors surface locally, before the rendezvous
		// envelope enters the fabric — the same order as SendType,
		// whose NewPacker validates before anything is delivered.
		return err
	}
	st := ty.Stats(count)
	wireBW := fl.wireBW
	if wireBW == 0 {
		// No MPI-internal buffers are involved, so the internal-pool
		// degradation of large typed sends does not apply: the wire
		// term runs at the nominal injection bandwidth, like the
		// reference send.
		wireBW = p.NetBandwidth
	}
	wire := float64(n) / wireBW

	fl.sendv = true
	c.clock.Advance(vclock.FromSeconds(p.SendOverhead))
	m := c.newRdvMessage(dest, tag, n, fl)
	err = c.deliverRdv(m, dest, tag)
	fl.signalDelivered()
	if err != nil {
		return err
	}
	match, err := c.awaitMatch(m, dest, tag)
	if err != nil {
		return err
	}
	ctsAt := match.MatchTime + dur(c.linkLatency(dest))
	c.clock.AdvanceTo(ctsAt)

	if c.faultsOn() && !c.retry.WholeReplay && m.Ack != nil {
		fd, hasFd := match.FusedDst.(*fusedDst)
		hasFd = hasFd && fd != nil
		covered := minInt64(n, int64(match.Dst.Len()))
		if hasFd {
			covered = minInt64(n, fd.need)
		}
		chunkSz := p.InternalChunk()
		if schunks := int((covered + chunkSz - 1) / chunkSz); schunks > 1 {
			// Selective chunk retransmission over the fused rendezvous:
			// replays re-pack only the damaged stream ranges — through a
			// chunk-sized staging hop into a fused receiver's layout, or
			// straight into a contiguous receiver's block.
			var attemptCost float64
			x := &chunkedXfer{
				covered: covered, chunkSize: chunkSz, chunks: schunks,
				drainAll: func() error {
					var copyCost float64
					var xferErr error
					if hasFd {
						if n == fd.need && !buf.Overlaps(b, fd.user) {
							copyCost = c.cache.FusedCopyCost(b.Region(), fd.user.Region(), st, fd.stats)
							_, xferErr = datatype.FusedCopy(plan, fd.plan, b, fd.user)
						} else {
							copyCost, xferErr = c.stagedScatter(plan, fd, b, st, n)
						}
					} else {
						dst := match.Dst
						dstSt := layout.Stats{Segments: 1, Bytes: covered, Extent: covered, AvgBlock: float64(covered), MinBlock: covered, MaxBlock: covered, Density: 1}
						copyCost = c.cache.FusedCopyCost(b.Region(), dst.Region(), st, dstSt)
						if covered > 0 {
							xferErr = plan.PackRange(b, dst, 0, covered)
						}
					}
					if xferErr != nil {
						return xferErr
					}
					attemptCost = math.Max(copyCost, wire)
					c.clock.Advance(vclock.FromSeconds(attemptCost))
					return nil
				},
				resend: func(lo, hi int64) error {
					if hasFd {
						scratch := c.transitAlloc(b, hi-lo)
						err := plan.PackRange(b, scratch, lo, hi)
						if err == nil {
							err = fd.plan.UnpackRange(scratch, fd.user, lo, hi)
						}
						buf.PutPooled(scratch)
						if err != nil {
							return err
						}
					} else if err := plan.PackRange(b, match.Dst.Slice(int(lo), int(hi-lo)), lo, hi); err != nil {
						return err
					}
					c.clock.Advance(vclock.FromSeconds(attemptCost * float64(hi-lo) / float64(covered)))
					return nil
				},
				sum: func(lo, hi int64) (uint64, bool) {
					recvReal := (hasFd && !fd.user.IsVirtual()) || (!hasFd && !match.Dst.IsVirtual())
					if b.IsVirtual() || !recvReal || hi <= lo {
						return 0, false
					}
					var cs buf.Checksum
					plan.ChecksumRange(b, lo, hi, &cs)
					return cs.Sum64(), true
				},
				damage: func(f simnet.Fault, lo, hi int64) bool {
					if hasFd {
						return damagePlanRange(fd.plan, fd.user, lo, hi, f)
					}
					return damageContigRange(match.Dst, lo, hi, f)
				},
			}
			return c.rdvSendSelective(m, dest, tag, n, x)
		}
	}

	// Each attempt re-runs the one-pass (or staged-emulation) transfer;
	// under faults the drawn damage lands in the receiver's layout
	// through its own plan, and the checksum claim covers the packed
	// stream both sides can compute without staging.
	return c.rdvSendLoop(m, dest, tag, n, func(f simnet.Fault) (uint64, bool, bool, error) {
		var copyCost float64
		var xferErr error
		var sum uint64
		hasSum := false
		poisoned := false
		if fd, ok := match.FusedDst.(*fusedDst); ok && fd != nil {
			if n == fd.need && !buf.Overlaps(b, fd.user) {
				// The fused fast path: one pass, layout to layout.
				copyCost = c.cache.FusedCopyCost(b.Region(), fd.user.Region(), st, fd.stats)
				_, xferErr = datatype.FusedCopy(plan, fd.plan, b, fd.user)
			} else {
				// Aliased buffers or a size mismatch: sender-local staged
				// emulation. The receiver still takes delivery in its
				// layout; the two passes are paid here.
				copyCost, xferErr = c.stagedScatter(plan, fd, b, st, n)
			}
			if xferErr == nil {
				nCopy := minInt64(n, fd.need)
				poisoned = f.NeedsResend() && !damagePlan(fd.plan, fd.user, nCopy, f)
				if m.Ack != nil && !b.IsVirtual() && !fd.user.IsVirtual() && nCopy > 0 {
					var cs buf.Checksum
					plan.ChecksumRange(b, 0, nCopy, &cs)
					sum = cs.Sum64()
					hasSum = true
				}
			}
		} else {
			// Contiguous (or fused-declining) receiver: pack the plan
			// straight into the remote destination block in one pass.
			dst := match.Dst
			nCopy := minInt64(n, int64(dst.Len()))
			dstSt := layout.Stats{Segments: 1, Bytes: nCopy, Extent: nCopy, AvgBlock: float64(nCopy), MinBlock: nCopy, MaxBlock: nCopy, Density: 1}
			copyCost = c.cache.FusedCopyCost(b.Region(), dst.Region(), st, dstSt)
			if nCopy > 0 {
				xferErr = plan.PackRange(b, dst, 0, nCopy)
			}
			// Attribution happens at the receiver: a contiguous receive
			// records the transfer as fused (one pass, no staging), a
			// fused-declining typed receiver records it as staged when it
			// unpacks. The sender cannot tell the two destinations apart.
			if xferErr == nil {
				poisoned = f.NeedsResend() && !damageContig(dst, nCopy, f)
				if m.Ack != nil && !b.IsVirtual() && !dst.IsVirtual() && nCopy > 0 {
					var cs buf.Checksum
					plan.ChecksumRange(b, 0, nCopy, &cs)
					sum = cs.Sum64()
					hasSum = true
				}
			}
		}
		if xferErr != nil {
			return 0, false, false, xferErr
		}
		// The single pass and the wire pipeline: the pass feeds the wire
		// run-by-run, so the sender is occupied for the longer of the two.
		c.clock.Advance(vclock.FromSeconds(math.Max(copyCost, wire)))
		return sum, hasSum, poisoned, nil
	})
}

// stagedScatter is the sender-local staged emulation of a fused
// transfer that cannot legally run in one pass: pack the plan into
// staging, scatter it into the receiver's layout, release the staging.
// Two memory passes — but when the payload spans several internal
// chunks the passes run on the chunk-slot pipeline: the pack worker
// fills slot k+1 while this goroutine scatters slot k into the
// receiver's layout, so the cost collapses from gather+scatter to the
// two-stage pipeline bound and the staging footprint shrinks from the
// whole message to the slot ring.
func (c *Comm) stagedScatter(plan *datatype.Plan, fd *fusedDst, b buf.Block, st layout.Stats, n int64) (float64, error) {
	nCopy := minInt64(n, fd.need)
	gather := c.cache.CompiledGatherCost(b.Region(), c.internal.Region(), st)
	scatter := c.cache.CompiledScatterCost(c.internal.Region(), fd.user.Region(), fd.stats)
	chunk := c.prof.InternalChunk()
	chunks := c.prof.Chunks(nCopy)
	// Aliased buffers (a fused self-send) must stage the whole message:
	// the pipeline's pack worker would read user bytes the consumer is
	// concurrently scattering over.
	if chunks > 1 && pipelineEnabled() && !buf.Overlaps(b, fd.user) {
		cost := memsim.PipelinedChunkCost(gather, scatter, chunks, c.prof.PipelineDepth())
		cp, err := datatype.NewChunkPipeline(plan, b, 0, nCopy, chunk, c.prof.PipelineDepth())
		if err != nil {
			return cost, err
		}
		defer cp.Close()
		for {
			ch, ok := cp.Next()
			if !ok {
				break
			}
			if err := fd.plan.UnpackRange(ch.Data, fd.user, ch.Lo, ch.Hi); err != nil {
				return cost, err
			}
			cp.Recycle(ch)
		}
		datatype.RecordStagedTransfer(nCopy)
		return cost, nil
	}
	staging := c.transitAlloc(b, nCopy)
	defer buf.PutPooled(staging)
	cost := gather + scatter
	if nCopy > 0 {
		if err := plan.PackRange(b, staging, 0, nCopy); err != nil {
			return cost, err
		}
		if err := fd.plan.UnpackRange(staging, fd.user, 0, nCopy); err != nil {
			return cost, err
		}
	}
	datatype.RecordStagedTransfer(nCopy)
	return cost, nil
}

// offerFusedDst builds the fused descriptor a typed rendezvous
// receiver hands to a sendv sender, or nil when the layout cannot
// legally take a one-pass scatter (uncompilable plan, overlapping
// repeated instances).
func (c *Comm) offerFusedDst(b buf.Block, count int, ty *datatype.Type, need int64) *fusedDst {
	plan, err := ty.CompilePlan(count)
	if err != nil || !plan.FusedDstSafe() {
		return nil
	}
	return &fusedDst{user: b, plan: plan, stats: ty.Stats(count), need: need}
}
