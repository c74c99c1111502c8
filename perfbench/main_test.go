package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestOutputMatchesBenchmarkJSON runs the cheapest workload briefly in
// both modes and checks the last output line against the metric lists
// BENCHMARK.json declares.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fanin workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]decl{spec.EndToEnd, spec.PerLayer} {
		var out bytes.Buffer
		code := run([]string{"--workload", "fanin", "--seed", "3", "--seconds", "0.1",
			"--trace", strconv.Itoa(trace), "--trace-dir", t.TempDir()}, &out, io.Discard)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %d: exit %d, result %+v", trace, code, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s = %+v, %v; want unit %s", trace, d.Name, m, ok, d.Unit)
			}
		}
		if !strings.Contains(out.String(), "sim_digest ") {
			t.Errorf("trace %d: no sim_digest line", trace)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seconds", "1"},
		{"--workload", "fanin", "--seconds", "0"},
		{"--workload", "fanin", "--trace", "2"},
		{"--workload", "fanin", "extra"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
