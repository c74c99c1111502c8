package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName identifies a span. Spans wrap the benchmark's own calls
// into each module's public functions; the prefix before the dot is
// the layer the call enters.
type spanName uint8

const (
	spanOp        spanName = iota // one op, on the rank that completes it
	spanRound                     // one closed-loop round on any rank
	spanCoreSetup                 // core.Runner.Setup
	spanCorePing                  // core.Runner.Ping
	spanCorePong                  // core.Runner.Pong
	spanCoreCheck                 // core.Runner.Check
	spanSplit                     // mpi.Comm.Split
	spanIrecv                     // mpi.Comm.IrecvType
	spanIsendv                    // mpi.Comm.IsendvType
	spanWait                      // mpi.Request.Wait
	spanBarrier                   // mpi.Comm.Barrier
	spanSendType                  // mpi.Comm.SendType
	spanRecv                      // mpi.Comm.Recv
	spanAllreduce                 // mpi.Comm.Allreduce
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.op", "bench.round",
	"core.Setup", "core.Ping", "core.Pong", "core.Check",
	"mpi.Split", "mpi.IrecvType", "mpi.IsendvType", "mpi.Wait", "mpi.Barrier",
	"mpi.SendType", "mpi.Recv", "mpi.Allreduce",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call. Times are nanoseconds since the run's trace
// epoch; parent indexes the enclosing span of the same rank, -1 for a
// root; op is the repetition or round the span belongs to, shared by
// every span of that op on that rank.
type span struct {
	start, end int64
	op         int64
	parent     int32
	rank       int32
	name       spanName
}

// tracer records the spans of one rank goroutine; only that goroutine
// touches it. A nil tracer records nothing: that is the untraced mode,
// and it costs one nil check per call site.
type tracer struct {
	epoch time.Time
	rank  int32
	open  int32
	spans []span
}

// begin opens a span under the currently open one and returns its
// index for end.
func (t *tracer) begin(name spanName, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), op: op, parent: t.open, rank: t.rank, name: name})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.spans[i].parent
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Children may overlap each other
// or stick out of their parent; only the union of their intervals
// clipped to the parent counts.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids []int32
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := spans[kids[a]], spans[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	for k := 0; k < len(kids); {
		p := spans[kids[k]].parent
		lo, hi := spans[p].start, spans[p].end
		var covered, curLo, curHi int64
		open := false
		for ; k < len(kids) && spans[kids[k]].parent == p; k++ {
			s, e := max(spans[kids[k]].start, lo), min(spans[kids[k]].end, hi)
			switch {
			case e <= s:
			case !open || s > curHi:
				if open {
					covered += curHi - curLo
				}
				curLo, curHi, open = s, e, true
			case e > curHi:
				curHi = e
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[p] -= covered
	}
	return self
}

// spanStat totals the spans of one name.
type spanStat struct{ n, dur, self int64 }

// traceLog collects the spans of a traced run: every unit's spans are
// folded into per-name totals, and the first maxKeptSpans are kept in
// memory to be written out when the run ends.
type traceLog struct {
	epoch   time.Time
	byName  [numSpanNames]spanStat
	kept    []span
	dropped int64
}

// maxKeptSpans bounds the spans kept for write-out (about 10 MB).
const maxKeptSpans = 1 << 18

func newTraceLog() *traceLog { return &traceLog{epoch: time.Now()} }

// tracers returns one tracer per rank of a world; nil when the log is
// nil, so untraced runs pass nil tracers everywhere.
func (l *traceLog) tracers(n int) []*tracer {
	trs := make([]*tracer, n)
	if l == nil {
		return trs
	}
	for r := range trs {
		trs[r] = &tracer{epoch: l.epoch, rank: int32(r), open: -1}
	}
	return trs
}

// collect folds the spans of finished tracers into the totals.
func (l *traceLog) collect(trs []*tracer) {
	if l == nil {
		return
	}
	for _, t := range trs {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			st := &l.byName[s.name]
			st.n++
			st.dur += s.end - s.start
			st.self += self[i]
		}
		if len(l.kept)+len(t.spans) > maxKeptSpans {
			l.dropped += int64(len(t.spans))
			continue
		}
		base := int32(len(l.kept))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			l.kept = append(l.kept, s)
		}
	}
}

// write stores the kept spans as CSV, one line per span; parent is the
// 0-based line number of the enclosing span, -1 for a root.
func (l *traceLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rank,name,start_ns,end_ns,parent,op")
	for _, s := range l.kept {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", s.rank, s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
