package main

import (
	"fmt"
	"io"
	"time"
)

// perLayer alternates untraced and traced units, then runs the direct
// probes, and prints the per-layer metrics. Span metrics and counter
// deltas come from the traced units; the gap between the two kinds'
// ops_per_s is the tracing overhead.
func perLayer(w io.Writer, wl *workload, d time.Duration, path string) (result, error) {
	log := newTraceLog()
	runs := measure(wl, d, 1, nil, log)
	plain, traced := runs[0], runs[1]
	sp, err := summarize(plain)
	if err != nil {
		return result{}, err
	}
	st, err := summarize(traced)
	if err != nil {
		return result{}, err
	}
	printDigests(w, append(plain, traced...))
	res := result{
		Correct:   sp.correct() && st.correct(),
		Attempted: sp.attempted + st.attempted,
		Failed:    sp.failed + st.failed,
		Metrics:   map[string]metric{},
	}
	if !res.Correct {
		printWrong(w, append(sp.wrong, st.wrong...))
		return res, nil
	}

	var lc layerCounts
	var ops int64
	for _, u := range traced {
		ops += u.completed
		lc.add(u.layer)
	}
	units := float64(len(traced))
	fill, equal, pack, unpack, err := kernelRates(wl.real)
	if err != nil {
		return result{}, err
	}
	wild := ratio(float64(lc.match.WildTakes), float64(lc.match.FastTakes+lc.match.WildTakes))
	matchNS := matchNs(wl.ranks, wild)

	b := &log.byName
	total := func(self bool, names ...spanName) float64 {
		var t int64
		for _, n := range names {
			if self {
				t += b[n].self
			} else {
				t += b[n].dur
			}
		}
		return float64(t)
	}
	perCall := func(n spanName) float64 { return ratio(float64(b[n].dur), float64(b[n].n)) }
	roots := total(false, spanOp, spanRound)
	plan := lc.plan
	packed := float64(plan.ContigBytes + plan.StrideBytes + plan.GatherBytes + plan.BlockBytes + plan.CursorBytes)
	net := lc.net
	faults := net.Drops + net.Corruptions + net.Truncations + net.Duplicates + net.Reorders + net.Delays

	for _, m := range []struct {
		name, unit string
		v          float64
		n          string
	}{
		{"core.setup_s", "s", total(true, spanCoreSetup) / 1e9 / units, "runner Setup self time per unit, summed over ranks"},
		{"core.check_s", "s", total(true, spanCoreCheck) / 1e9 / units, "runner Check self time per unit"},
		{"buf.fill_GBps", "GB/s", fill, fmt.Sprintf("FillPattern on %d real source sizes", len(wl.real))},
		{"buf.equal_GBps", "GB/s", equal, fmt.Sprintf("Equal on %d real payload sizes", len(wl.real))},
		{"buf.pool_hit_ratio", "ratio", ratio(float64(lc.pool.Hits), float64(lc.pool.Gets)), fmt.Sprintf("of %d pooled gets", lc.pool.Gets)},
		{"datatype.pack_GBps", "GB/s", pack, "Pack of the committed types at the real sizes"},
		{"datatype.unpack_GBps", "GB/s", unpack, "Unpack of the committed types at the real sizes"},
		{"datatype.cursor_bytes_share", "ratio", ratio(float64(plan.CursorBytes), packed), fmt.Sprintf("of %.0f packed bytes", packed)},
		{"datatype.fused_bytes_share", "ratio", ratio(float64(plan.FusedBytes), float64(plan.FusedBytes+plan.StagedBytes)), fmt.Sprintf("of %d typed rendezvous bytes", plan.FusedBytes+plan.StagedBytes)},
		{"datatype.plan_hit_ratio", "ratio", ratio(float64(plan.PlanHits), float64(plan.PlanHits+plan.PlanMisses)), fmt.Sprintf("of %d plan lookups", plan.PlanHits+plan.PlanMisses)},
		{"simnet.match_ns", "ns", matchNS, fmt.Sprintf("Deliver+Match at %d ranks, %.3f wildcard", wl.ranks, wild)},
		{"simnet.wild_share", "ratio", wild, fmt.Sprintf("of %d takes", lc.match.FastTakes+lc.match.WildTakes)},
		{"simnet.live_queues", "count", float64(lc.match.Queues) / units, "per unit, at its end"},
		{"simnet.faults_injected", "count", float64(faults) / units, "per unit"},
		{"mpi.p2p_us", "us", total(true, spanIrecv, spanIsendv, spanWait, spanSendType, spanRecv) / 1e3 / float64(ops), fmt.Sprintf("per op over %d ops, all ranks", ops)},
		{"mpi.wait_share", "ratio", ratio(total(false, spanWait, spanRecv), roots), "Wait+Recv time over op and round time"},
		{"mpi.barrier_us", "us", perCall(spanBarrier) / 1e3, fmt.Sprintf("n=%d calls", b[spanBarrier].n)},
		{"mpi.allreduce_us", "us", perCall(spanAllreduce) / 1e3, fmt.Sprintf("n=%d calls", b[spanAllreduce].n)},
		{"mpi.allreduce_allocs", "count", ratio(float64(lc.collAllocs), float64(lc.collCalls)), fmt.Sprintf("per rank call, n=%d calls", lc.collCalls)},
		{"mpi.split_s", "s", perCall(spanSplit) / 1e9, fmt.Sprintf("n=%d calls", b[spanSplit].n)},
		{"mpi.retries_per_op", "count", float64(net.Retries) / float64(ops), fmt.Sprintf("over %d ops", ops)},
		{"mpi.integrity_rejects_per_op", "count", float64(net.IntegrityRejects) / float64(ops), fmt.Sprintf("over %d ops", ops)},
		{"mpi.retransmit_share", "ratio", ratio(float64(net.RetransmitBytes), float64(lc.bytes)), fmt.Sprintf("of %d payload bytes", lc.bytes)},
		{"go.gc_cpu_share", "ratio", ratio(lc.gcCPU, lc.cpu), "GC CPU over available CPU in the timed phases"},
		{"bench.self_share", "ratio", ratio(total(true, spanOp, spanRound), roots), "op and round time outside every traced call"},
		{"trace.overhead_share", "ratio", sp.opsPerS/st.opsPerS - 1, fmt.Sprintf("ops_per_s untraced %.6g (n=%d units) vs traced %.6g (n=%d units)", sp.opsPerS, sp.units, st.opsPerS, st.units)},
	} {
		res.Metrics[m.name] = metric{m.v, m.unit}
		fmt.Fprintf(w, "layer %-28s %14.6g %-6s %s\n", m.name, m.v, m.unit, m.n)
	}
	if err := log.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans %s kept=%d dropped=%d\n", path, len(log.kept), log.dropped)
	return res, nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
