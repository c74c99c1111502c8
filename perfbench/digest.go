package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/simnet"
)

// digest is an FNV-1a hash over a canonical little-endian encoding of
// simulated results. Two runs of a deterministic simulation, or a
// host-time optimisation of it, must produce the same digest; any
// change to a virtual time or an exact counter changes it.
type digest struct {
	h   hash.Hash64
	tmp [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// u64 adds an integer.
func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.tmp[:], v)
	d.h.Write(d.tmp[:]) // hash writes never fail
}

// i64 adds a signed integer.
func (d *digest) i64(v int64) { d.u64(uint64(v)) }

// f64 adds a float by its exact bit pattern, so a result that moves
// in the last place changes the digest.
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

// str adds a length-prefixed string.
func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// counters adds every exact fabric counter: traffic, matches, faults
// and recovery.
func (d *digest) counters(c simnet.Counters) {
	for _, v := range [...]int64{
		c.EagerSends, c.RendezvousSends, c.BytesInjected, c.BytesDelivered,
		c.MessagesMatched, c.Probes,
		c.Drops, c.Corruptions, c.Truncations, c.Duplicates, c.Reorders, c.Delays,
		c.Retries, c.IntegrityRejects,
		c.ChunkRetransmits, c.RetransmitBytes, c.DupChunksSuppressed,
	} {
		d.i64(v)
	}
}

// digestNames name the three views of a unit's simulated outcome,
// strictest first:
//
//	sim_digest       every virtual time the unit produced (each op's
//	                 completion time, each rank's final time), its
//	                 computed results and every exact counter;
//	elapsed_digest   each rank's final virtual time, the computed
//	                 results and the counters, but not per-op times;
//	counters_digest  the exact fabric and matching counters alone.
//
// A host-time optimisation must leave all three unchanged. The coarser
// two localise a difference the strictest one shows.
var digestNames = [3]string{"sim_digest", "elapsed_digest", "counters_digest"}

// digests accumulates the three views together.
type digests [3]*digest

func newDigests() digests { return digests{newDigest(), newDigest(), newDigest()} }

// op adds one op's virtual completion time.
func (d digests) op(v float64) { d[0].f64(v) }

// result adds a final virtual time or a computed result.
func (d digests) result(v float64) {
	d[0].f64(v)
	d[1].f64(v)
}

// exact adds every rank's fabric counters and the matching totals.
func (d digests) exact(net []simnet.Counters, m simnet.MatchStats) {
	for _, x := range d {
		for _, c := range net {
			x.counters(c)
		}
		x.matches(m)
	}
}

func (d digests) sums() [3]uint64 { return [3]uint64{d[0].sum(), d[1].sum(), d[2].sum()} }

// matches adds the fabric's matching attribution.
func (d *digest) matches(m simnet.MatchStats) {
	d.i64(m.Queues)
	d.i64(m.FastTakes)
	d.i64(m.WildTakes)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
