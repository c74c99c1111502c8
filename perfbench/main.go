// Command perfbench is the simulator's host-time benchmark. It runs
// one workload through the repository's public entry points for about
// -seconds of host time, checks every output, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics of a traced
// run (-trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// The lines before it are a human-readable report: the host
// descriptor, every metric with its sample count, and sim_digest, a
// hash of the run's virtual-time results and exact counters that a
// host-time optimisation must leave unchanged.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload figure --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// heldOutSeed is never used while tuning a change; a claimed speed-up
// must also hold on it.
const heldOutSeed = 7919

// Units per workload are fixed in size so that every unit simulates
// exactly the same thing; a run repeats them until its time is up.
const (
	mixRanks, mixRounds     = 256, 100
	chaosRanks, chaosRounds = 128, 48
	chaosFaultRate          = 0.02
	faninRanks, faninRounds = 512, 16
	minUnits                = 3 // setup_s is the median over at least this many
)

// workload is one named input set.
type workload struct {
	ranks int     // world size, for the match probe
	real  []int64 // packed bytes of the payloads that carry real data
	unit  func(*traceLog) unit
}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "figure":
		f, err := newFigure(seed)
		if err != nil {
			return nil, err
		}
		return &workload{ranks: 2, real: f.real, unit: f.unit}, nil
	case "jobmix":
		return &workload{ranks: mixRanks, unit: newMix(seed, mixRanks, mixRounds, 0).unit}, nil
	case "chaos":
		return &workload{ranks: chaosRanks, unit: newMix(seed, chaosRanks, chaosRounds, chaosFaultRate).unit}, nil
	case "fanin":
		return &workload{ranks: faninRanks, real: []int64{faninBytes}, unit: newFanin(seed, faninRanks, faninRounds).unit}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figure, jobmix, fanin or chaos)", name)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "figure, jobmix, fanin or chaos")
	seed := fl.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fl.Float64("seconds", 15, "host seconds to measure for")
	trace := fl.Int("trace", 0, "0 prints end-to-end metrics; 1 adds a traced pass and prints per-layer metrics")
	traceDir := fl.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	hj, _ := json.Marshal(describeHost(*name, *seed))
	fmt.Fprintf(stdout, "host %s\n", hj)

	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res, err = endToEnd(stdout, wl, d)
	} else {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.csv", *name, *seed))
		res, err = perLayer(stdout, wl, d, path)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure repeats rounds of units for about d of host time. A round
// runs one unit per entry of logs, untraced for a nil entry, so traced
// and untraced units alternate and see the same drift in host speed.
// It starts another round only while at least half of the last one's
// time remains, runs at least minRounds rounds, and stops at the first
// unit with a wrong output.
func measure(wl *workload, d time.Duration, minRounds int, logs ...*traceLog) [][]unit {
	end := time.Now().Add(d)
	runs := make([][]unit, len(logs))
	for rounds := 1; ; rounds++ {
		t := time.Now()
		for i, log := range logs {
			u := wl.unit(log)
			u.summariseLatency()
			runs[i] = append(runs[i], u)
			if len(u.wrong) > 0 {
				return runs
			}
		}
		if rounds >= minRounds && time.Until(end) < time.Since(t)/2 {
			return runs
		}
	}
}

// summary is what a set of units measured end to end.
type summary struct {
	units             int
	attempted, failed int64
	opsPerS           float64
	p50, p99          float64 // µs, medians over units
	setup             float64 // s, median over units
	allocsPerOp       float64
	heapMB            float64 // median over units
	samples           int     // latency samples over all units
	timed             float64 // s
	wrong             []string
}

func summarize(units []unit) (summary, error) {
	s := summary{units: len(units)}
	var p50s, p99s, setups, heaps []float64
	var completed int64
	var mallocs uint64
	for _, u := range units {
		s.attempted += u.attempted
		completed += u.completed
		s.timed += u.timed.Seconds()
		mallocs += u.mallocs
		s.samples += u.samples
		p50s = append(p50s, u.p50)
		p99s = append(p99s, u.p99)
		setups = append(setups, u.setup.Seconds())
		heaps = append(heaps, float64(u.heapLive)/1e6)
		s.wrong = append(s.wrong, u.wrong...)
	}
	s.failed = s.attempted - completed
	if len(s.wrong) > 0 || s.failed > 0 {
		return s, nil
	}
	for _, u := range units {
		if u.latErr != nil {
			return s, fmt.Errorf("unit too short for op_p99_us: %w", u.latErr)
		}
	}
	s.opsPerS = float64(completed) / s.timed
	s.allocsPerOp = float64(mallocs) / float64(completed)
	s.p50, s.p99 = median(p50s), median(p99s)
	s.setup = median(setups)
	s.heapMB = median(heaps)
	return s, nil
}

func (s summary) correct() bool { return len(s.wrong) == 0 && s.failed == 0 }

// endToEnd measures untraced and prints the end-to-end metrics.
func endToEnd(w io.Writer, wl *workload, d time.Duration) (result, error) {
	units := measure(wl, d, minUnits, nil)[0]
	s, err := summarize(units)
	if err != nil {
		return result{}, err
	}
	printDigests(w, units)
	res := result{Correct: s.correct(), Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	if !res.Correct {
		printWrong(w, s.wrong)
		return res, nil
	}
	ops := fmt.Sprintf("n=%d ops", s.attempted-s.failed)
	units0 := fmt.Sprintf("n=%d units", s.units)
	for _, m := range []struct {
		name, unit string
		v          float64
		n          string
	}{
		{"ops_per_s", "1/s", s.opsPerS, fmt.Sprintf("%s in %.3f s", ops, s.timed)},
		{"op_p50_us", "us", s.p50, fmt.Sprintf("n=%d ops, median of %d unit p50s", s.samples, s.units)},
		{"op_p99_us", "us", s.p99, fmt.Sprintf("n=%d ops, median of %d unit p99s", s.samples, s.units)},
		{"setup_s", "s", s.setup, units0 + ", median"},
		{"allocs_per_op", "count", s.allocsPerOp, ops},
		{"heap_live_MB", "MB", s.heapMB, units0 + ", median"},
	} {
		res.Metrics[m.name] = metric{m.v, m.unit}
		fmt.Fprintf(w, "metric %-14s %14.6g %-6s %s\n", m.name, m.v, m.unit, m.n)
	}
	var rates []string
	for _, u := range units {
		rates = append(rates, fmt.Sprintf("%.4g", float64(u.completed)/u.timed.Seconds()))
	}
	fmt.Fprintf(w, "units ops_per_s in run order: %s\n", strings.Join(rates, " "))
	// error_rate is reported here and through attempted/failed, not as
	// a gated metric: on a correct run it is always zero.
	fmt.Fprintf(w, "metric %-14s %14.6g %-6s attempted=%d failed=%d\n", "error_rate",
		float64(s.failed)/float64(s.attempted), "ratio", s.attempted, s.failed)
	return res, nil
}

// printDigests reports each digest of the first unit and how many
// distinct values it took across the run's units. Units of one run
// simulate the same thing, so more than one distinct value means the
// simulated outcome depends on host scheduling. That is reported, not
// failed: it is a defect of the simulator, not a wrong output, and the
// figure digest also depends on GOMAXPROCS.
func printDigests(w io.Writer, units []unit) {
	for k, name := range digestNames {
		seen := map[uint64]bool{}
		var all []string
		for _, u := range units {
			if len(u.wrong) == 0 {
				seen[u.digest[k]] = true
				all = append(all, fmt.Sprintf("%016x", u.digest[k]))
			}
		}
		if len(all) > 0 {
			fmt.Fprintf(w, "%s %s distinct=%d of %d units: %s\n", name, all[0], len(seen), len(all), strings.Join(all, " "))
		}
	}
}

// printWrong reports the first wrong outputs, each cut to its first
// lines: a hung world reports every rank's stuck endpoints.
func printWrong(w io.Writer, wrong []string) {
	for i, s := range wrong {
		if i == 20 {
			fmt.Fprintf(w, "wrong: ... %d more\n", len(wrong)-i)
			break
		}
		if lines := strings.SplitN(s, "\n", 5); len(lines) == 5 {
			s = strings.Join(lines[:4], "\n") + "\n  ..."
		}
		fmt.Fprintf(w, "wrong: %s\n", s)
	}
}
