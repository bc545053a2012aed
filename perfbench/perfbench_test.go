package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hpcsched/internal/experiments"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloadList {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q invalid or reused", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bj.Workloads), len(workloadList))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound presence %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics, true)
	check("per_layer", bj.PerLayer, perLayerMetrics, false)
}

func tinyBench(w workload, seed uint64) *bench {
	return &bench{
		ctx: context.Background(), w: w, sz: tinySize, seed: seed,
		dur: time.Millisecond, goldenDir: "../internal/experiments/testdata",
	}
}

// TestShimTransparency: the counting tracer, the PerfModel wrapper and the
// Progress callback change no output, and replaying a recorder leaves its
// .prv export as it was.
func TestShimTransparency(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			b := tinyBench(w, 7)
			plain := b.unit(params{})
			sh := &shims{}
			inst := b.unit(params{shims: sh})
			if b.failed() > 0 {
				t.Fatalf("failures: %v", b.problems)
			}
			if plain.digest == "" || inst.digest != plain.digest {
				t.Fatalf("instrumented digest %s, plain %s", inst.digest, plain.digest)
			}
			if sh.speedEvals.Load() == 0 {
				t.Error("PerfModel wrapper saw no speed evaluations")
			}
			if w.name != "cluster-16node" && sh.completed.Load() != int64(plain.runs) {
				t.Errorf("Progress reported %d runs, want %d", sh.completed.Load(), plain.runs)
			}
			if tr, _ := sh.tracerTotals(); w.name != "traced-sweep" && tr == 0 {
				t.Error("counting tracer saw no transitions")
			}
		})
	}

	r := experiments.Run(experiments.Config{Workload: "metbench", Seed: 3, Trace: true})
	before := r.Recorder.ExportPRV()
	var cs countSink
	r.Recorder.Replay(&cs)
	var c counts
	c.addResult(r)
	if cs.intervals != c.intervals || cs.intervals == 0 {
		t.Errorf("Replay delivered %d intervals, TaskTrace.Len sums to %d", cs.intervals, c.intervals)
	}
	if r.Recorder.ExportPRV() != before {
		t.Error(".prv export changed after Replay")
	}
}

type countSink struct{ intervals int }

func (s *countSink) BeginTask(*trace.TaskTrace)                    {}
func (s *countSink) Interval(*trace.TaskTrace, trace.Interval)     { s.intervals++ }
func (s *countSink) PrioChange(*trace.TaskTrace, trace.PrioChange) {}
func (s *countSink) Finish(sim.Time)                               {}

// TestTinyWorkloads runs both modes of every workload at a tiny size: no
// run or check may fail, and every declared metric must be reported.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			for mode, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
				b := tinyBench(w, goldenSeed)
				var vals map[string]float64
				var log bytes.Buffer
				if mode == 0 {
					vals = b.endToEnd(&log)
				} else {
					vals = b.layers(&log)
				}
				var out bytes.Buffer
				report(&out, defs, vals, b.runs, b.problems)
				res := lastResult(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("mode %d: correct=%v failed=%d attempted=%d\n%s%s", mode, res.Correct, res.Failed, res.Attempted, log.String(), out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("mode %d: %d metrics reported, %d declared", mode, len(res.Metrics), len(defs))
				}
				if mode == 0 && res.Metrics["success_rate"].Value != 1 {
					t.Errorf("success_rate = %v", res.Metrics["success_rate"].Value)
				}
			}
		})
	}
}

// TestFailedCheckExitsNonZero runs the command end to end: a failed output
// check (here four missing goldens) is reported in the JSON and in the exit
// code, and nothing else fails.
func TestFailedCheckExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full paper-tables units")
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "paper-tables", "--seed", "42", "--seconds", "0.001",
		"--trace", "0", "--golden-dir", t.TempDir()}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, errb.String())
	}
	res := lastResult(t, out.String())
	if res.Correct || res.Failed != len(goldenFiles) {
		t.Fatalf("correct=%v failed=%d, want the %d golden failures only\n%s", res.Correct, res.Failed, len(goldenFiles), out.String())
	}
	perUnit := 0
	for _, wl := range fullSize.tables {
		perUnit += len(experiments.TableModes(wl))
	}
	if min := 3 * perUnit; res.Attempted < min {
		t.Errorf("attempted %d runs, want at least %d (three measured units)", res.Attempted, min)
	}
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEndMetrics))
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-tables", "--trace", "2"},
		{"--workload", "paper-tables", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}
