package mpi

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/vclock"
)

// packWindow validates the preamble shared by every explicit
// pack/unpack entry point — non-negative count, the packed byte count,
// and the position window inside the packed buffer — and returns the
// window as a sub-block. op names the operation for the error text.
func packWindow(count int, ty *datatype.Type, packed buf.Block, position *int64, op string) (buf.Block, int64, error) {
	if count < 0 {
		return buf.Block{}, 0, fmt.Errorf("%w: %d", ErrCount, count)
	}
	need := ty.PackSize(count)
	if *position < 0 || *position+need > int64(packed.Len()) {
		return buf.Block{}, 0, fmt.Errorf("%w: %s of %d bytes at position %d in %d-byte buffer",
			datatype.ErrTruncate, op, need, *position, packed.Len())
	}
	return packed.Slice(int(*position), int(need)), need, nil
}

// Pack gathers count instances of a datatype from b into outbuf
// starting at *position, advancing *position — the signature shape of
// MPI_Pack. One call costs one PackCallOverhead plus the gather loop,
// which is why packing a whole vector datatype (packing(v)) costs the
// same as a manual copy (§4.3) while packing element by element
// (packing(e)) drowns in call overhead (§2.6).
func (c *Comm) Pack(b buf.Block, count int, ty *datatype.Type, outbuf buf.Block, position *int64) error {
	dst, need, err := packWindow(count, ty, outbuf, position, "pack")
	if err != nil {
		return err
	}
	st := ty.Stats(count)
	cost := c.prof.PackCallOverhead + c.cache.GatherCost(b.Region(), outbuf.Region(), st)
	c.clock.Advance(vclock.FromSeconds(cost))
	if _, err := ty.Pack(b, count, dst); err != nil {
		return err
	}
	*position += need
	return nil
}

// Unpack is the inverse of Pack, like MPI_Unpack.
func (c *Comm) Unpack(inbuf buf.Block, position *int64, b buf.Block, count int, ty *datatype.Type) error {
	src, need, err := packWindow(count, ty, inbuf, position, "unpack")
	if err != nil {
		return err
	}
	st := ty.Stats(count)
	cost := c.prof.PackCallOverhead + c.cache.ScatterCost(inbuf.Region(), b.Region(), st)
	c.clock.Advance(vclock.FromSeconds(cost))
	if _, err := ty.Unpack(src, count, b); err != nil {
		return err
	}
	*position += need
	return nil
}

// PackSize returns the buffer space needed to pack count instances,
// like MPI_Pack_size (without implementation slack).
func (c *Comm) PackSize(count int, ty *datatype.Type) int64 {
	return ty.PackSize(count)
}

// PackCompiled is Pack through the compiled pack-plan engine: the same
// gather, executed by the plan's specialized kernel instead of generic
// interpretation. The plan comes from the type's cache (compiled at
// Commit, bound per count on first use), so steady-state calls compile
// nothing. Pricing uses the amortised per-segment bookkeeping of
// memsim.CompiledGatherCost, on one core even when the real copy
// splits across goroutines. This is the "packing(c)" scheme of the
// figures.
func (c *Comm) PackCompiled(b buf.Block, count int, ty *datatype.Type, outbuf buf.Block, position *int64) error {
	dst, need, err := packWindow(count, ty, outbuf, position, "pack")
	if err != nil {
		return err
	}
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return err
	}
	st := ty.Stats(count)
	gather := c.planGatherCost(plan, b.Region(), outbuf.Region(), st)
	c.clock.Advance(vclock.FromSeconds(c.prof.PackCallOverhead + gather))
	if _, err := plan.Pack(b, dst); err != nil {
		return err
	}
	*position += need
	return nil
}

// UnpackCompiled is the scatter-side mirror of PackCompiled.
func (c *Comm) UnpackCompiled(inbuf buf.Block, position *int64, b buf.Block, count int, ty *datatype.Type) error {
	src, need, err := packWindow(count, ty, inbuf, position, "unpack")
	if err != nil {
		return err
	}
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return err
	}
	st := ty.Stats(count)
	scatter := c.planScatterCost(plan, inbuf.Region(), b.Region(), st)
	c.clock.Advance(vclock.FromSeconds(c.prof.PackCallOverhead + scatter))
	if _, err := plan.Unpack(src, b); err != nil {
		return err
	}
	*position += need
	return nil
}

// planGatherCost prices the compiled gather behind plan. A plan whose
// program the Commit-time normalizer collapsed into a canonical
// strided-block form (datatype.KernelBlock) runs the registry's
// unrolled tiles, so it is priced with the further-amortised normalized
// term; every other program prices at the generic compiled term.
func (c *Comm) planGatherCost(plan *datatype.Plan, src, dst buf.Region, st layout.Stats) float64 {
	if plan.Kernel() == datatype.KernelBlock {
		return c.cache.NormalizedGatherCost(src, dst, st)
	}
	return c.cache.CompiledGatherCost(src, dst, st)
}

// planScatterCost is the scatter-side mirror of planGatherCost.
func (c *Comm) planScatterCost(plan *datatype.Plan, src, dst buf.Region, st layout.Stats) float64 {
	if plan.Kernel() == datatype.KernelBlock {
		return c.cache.NormalizedScatterCost(src, dst, st)
	}
	return c.cache.CompiledScatterCost(src, dst, st)
}
