package core

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

// FaultyCostModel extends PackingCostModel with fault-adjusted
// expected one-way times under a lossy fabric with checksum-verified
// retransmission (memsim.FaultProfile). The adjustment follows the
// executor's actual recovery unit. The chunked rendezvous engines
// recover selectively: every internal chunk carries its own checksum,
// the receiver NACKs a chunk bitmap, and a retry replays only the
// damaged chunks — so the replay work compounds with the per-chunk
// loss, not with the whole transfer. The eager and single-chunk paths
// keep PR 7's whole-transfer replay, and the WholeReplay* fields keep
// that pricing for every scheme as the comparison baseline the chaos
// studies plot.
type FaultyCostModel struct {
	PackingCostModel
	Faults memsim.FaultProfile

	// Legs is the number of faultable delivery legs per attempt: one
	// for an eager message, envelope + internal chunks for rendezvous.
	Legs int64
	// Chunks is the selective recovery unit count of the rendezvous
	// engines (the internal data chunks); 0 when the transfer is eager
	// or single-chunk, where recovery stays whole-transfer.
	Chunks int64

	// Fault-adjusted expected one-way times, mirroring the clean
	// fields of PackingCostModel.
	FaultyCompiledPack  float64
	FaultyTypedSend     float64
	FaultyFusedSend     float64
	FaultyPipelinedSend float64

	// WholeReplayTypedSend and WholeReplayPipelinedSend price the same
	// transfers under PR 7's whole-transfer replay — the baseline the
	// selective engine is measured against (E18/E21).
	WholeReplayTypedSend     float64
	WholeReplayPipelinedSend float64

	// DeliveryProb is the probability the transfer completes within
	// the retry budget at all; below 1 the expected times above are
	// conditioned on the attempts actually made.
	DeliveryProb float64
}

// Slowdown returns the fault-induced inflation of the typed send:
// expected lossy time over clean time.
func (m FaultyCostModel) Slowdown() float64 {
	if m.TypedSend <= 0 {
		return 1
	}
	return m.FaultyTypedSend / m.TypedSend
}

// SelectiveGain returns the whole-replay pipelined cost over the
// selective pipelined cost: >1 is the modeled payoff of per-chunk
// recovery for the engine with the most expensive whole-transfer
// retry.
func (m FaultyCostModel) SelectiveGain() float64 {
	if m.FaultyPipelinedSend <= 0 || m.WholeReplayPipelinedSend <= 0 {
		return 1
	}
	return m.WholeReplayPipelinedSend / m.FaultyPipelinedSend
}

// PricePackingUnderFaults evaluates the packing cost model for n
// payload bytes on profile p, then inflates each scheme by the
// expected retries and backoff of the fault profile.
func PricePackingUnderFaults(n int64, p *perfmodel.Profile, fp memsim.FaultProfile) FaultyCostModel {
	m := FaultyCostModel{PackingCostModel: PricePacking(n, p), Faults: fp}
	m.Legs = 1
	rdv := n > 0 && !p.Eager(n, false)
	if rdv {
		m.Legs = 1 + p.Chunks(n)
		if ch := p.Chunks(n); ch > 1 {
			m.Chunks = ch
		}
	}
	// Whole-replay baselines (PR 7's recovery unit) for every scheme.
	m.FaultyCompiledPack = fp.InflateTransfer(m.CompiledPack, m.CompiledPack, m.Legs)
	m.WholeReplayTypedSend = fp.InflateTransfer(m.TypedSend, m.TypedSend, m.Legs)
	if m.PipelinedSend > 0 {
		// A whole-transfer retry of the pipelined engine drains the
		// slot ring and replays the span serially before the overlap
		// refills, so its resend unit is the serial typed cost:
		// overlap only pays off on clean attempts.
		m.WholeReplayPipelinedSend = fp.InflateTransfer(m.PipelinedSend, m.TypedSend, m.Legs)
	}

	if m.Chunks > 0 {
		// Selective recovery: a damaged chunk replays only its own
		// share of the pack+inject pass, for every chunked rendezvous
		// engine — including the pipelined one, whose expensive
		// whole-span retry is exactly what the chunk bitmap avoids.
		chunkResend := m.TypedSend / float64(m.Chunks)
		m.FaultyTypedSend = fp.SelectiveInflateTransfer(m.TypedSend, chunkResend, m.Chunks)
		if m.FusedSend > 0 {
			m.FaultyFusedSend = fp.SelectiveInflateTransfer(m.FusedSend, m.FusedSend/float64(m.Chunks), m.Chunks)
		}
		if m.PipelinedSend > 0 {
			m.FaultyPipelinedSend = fp.SelectiveInflateTransfer(m.PipelinedSend, chunkResend, m.Chunks)
		}
		m.DeliveryProb = fp.SelectiveDeliveryProb(m.Chunks)
	} else {
		// Eager or single-chunk: recovery stays whole-transfer.
		m.FaultyTypedSend = m.WholeReplayTypedSend
		if m.FusedSend > 0 {
			m.FaultyFusedSend = fp.InflateTransfer(m.FusedSend, m.FusedSend, m.Legs)
		}
		m.FaultyPipelinedSend = m.WholeReplayPipelinedSend
		m.DeliveryProb = fp.TransferDeliveryProb(m.Legs)
	}
	return m
}

// RecommendUnderFaults is the fault-adjusted variant of Recommend: the
// same scheme ladder, priced with expected retries and backoff folded
// in. On a clean fabric it reduces exactly to Recommend. Under
// selective chunk retransmission the pipelined engine keeps its edge —
// its retries replay only the damaged chunks, not the whole span — so
// the lossy ladder tracks the clean one far longer than PR 7's
// whole-transfer replay did, and the recommendation flips back to the
// overlap engines.
func RecommendUnderFaults(n int64, contiguous bool, goal Goal, p *perfmodel.Profile, fp memsim.FaultProfile) Recommendation {
	if !fp.Enabled() {
		return Recommend(n, contiguous, goal, p)
	}
	if contiguous {
		return Recommendation{
			Scheme: Reference,
			Reason: "payload is contiguous; a plain send attains the hardware rate (retries inflate every scheme equally)",
		}
	}
	model := PricePackingUnderFaults(n, p, fp)
	annotate := func(r Recommendation) Recommendation {
		unit := "whole-transfer replay"
		if model.Chunks > 0 {
			unit = fmt.Sprintf("selective replay over %d chunks", model.Chunks)
		}
		r.Reason = fmt.Sprintf("%s; fault-adjusted for leg loss %.3g over %d legs (%s, budget %d, delivery prob %.4f, expected slowdown %.2fx)",
			r.Reason, fp.LegLossRate, model.Legs, unit, fp.MaxRetries, model.DeliveryProb, model.Slowdown())
		return r
	}
	if goal != GoalFastest {
		// The balanced ladder is threshold-driven, not price-driven;
		// faults inflate all schemes by the same leg count, so the
		// thresholds stand. Annotate with the expected inflation.
		return annotate(Recommend(n, contiguous, goal, p))
	}
	if model.FaultyFusedSend > 0 && model.FaultyFusedSend < model.FaultyCompiledPack &&
		model.FaultyFusedSend < model.FaultyTypedSend &&
		(model.FaultyPipelinedSend <= 0 || model.FaultyFusedSend <= model.FaultyPipelinedSend) {
		return annotate(Recommendation{
			Scheme: Sendv,
			Reason: fmt.Sprintf("fused rendezvous models %.2fx over the datatype send on %s under loss: one pass per attempt is the cheapest retry unit",
				model.FaultyTypedSend/model.FaultyFusedSend, p.Name),
		})
	}
	if model.FaultyPipelinedSend > 0 && model.FaultyPipelinedSend < model.FaultyCompiledPack &&
		model.FaultyPipelinedSend < model.FaultyTypedSend {
		return annotate(Recommendation{
			Scheme: TypedPipelined,
			Reason: fmt.Sprintf("pipelined chunk engine models %.2fx over the serial datatype send on %s: selective retransmission replays only damaged chunks, keeping the overlap",
				model.FaultyTypedSend/model.FaultyPipelinedSend, p.Name),
		})
	}
	if model.FaultyCompiledPack < model.FaultyTypedSend {
		return annotate(Recommendation{
			Scheme: PackCompiled,
			Reason: fmt.Sprintf("compiled pack models %.2fx over the datatype send on %s under loss",
				model.FaultyTypedSend/model.FaultyCompiledPack, p.Name),
		})
	}
	return annotate(Recommendation{
		Scheme: PackVector,
		Reason: "MPI_Pack of a derived datatype matches the manual copy; loss inflates every scheme by the same leg count here",
	})
}
