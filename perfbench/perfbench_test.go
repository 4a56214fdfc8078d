package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny runs a workload at a small scale for a couple of seconds.
func tiny(t *testing.T, w *workload, traced bool, corrupt int) *report {
	t.Helper()
	cfg := config{
		workload:      w.name,
		seed:          3,
		seconds:       2,
		trace:         traced,
		scale:         0.05,
		workDir:       t.TempDir(),
		corruptDigest: corrupt,
	}
	r, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", w.name, traced, err)
	}
	return r
}

// TestEveryMetricEmitted runs each workload untraced and traced at a
// tiny scale: every answer must check out, and every catalogued metric
// must be emitted and finite — end-to-end ones also positive.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := tiny(t, w, traced, -1)
			if !r.correct || r.failed != 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v", w.name, traced, r.correct, r.failed, r.attempted, r.problems)
			}
			var out bytes.Buffer
			if err := printReport(&out, r, traced); err != nil {
				t.Errorf("%s (traced %v): %v", w.name, traced, err)
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) || res.Attempted < 1 {
				t.Errorf("%s (traced %v): %d metrics over %d attempts, want %d metrics", w.name, traced, len(res.Metrics), res.Attempted, len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", w.name, s.name)
				case m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v %s", w.name, s.name, m.Value, m.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, s.name, m.Value)
				}
			}
		}
	}
}

// TestCorruptDigestCounted proves the answer check can fail: with one
// expected digest flipped, the server's correct answers to that request
// count as wrong, in error_rate and in the result's correct flag.
func TestCorruptDigestCounted(t *testing.T) {
	w, _ := workloadByName("paper-read")
	r := tiny(t, w, false, 0)
	if r.failed == 0 || r.metrics["error_rate"] <= 0 || r.correct {
		t.Fatalf("corrupted digest went unnoticed: failed %d, error_rate %v, correct %v",
			r.failed, r.metrics["error_rate"], r.correct)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and the
// workload list in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if got, want := len(bj.Workloads), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", got, want)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, catalog %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestSearchRate runs the read_qps_at_slo search against a synthetic
// server whose probes pass up to a fixed capacity: whether the knee lies
// below the high rate, just above it or far above it, the search lands
// within its step of the capacity, and only a capacity past the climb's
// cap is reported as capped.
func TestSearchRate(t *testing.T) {
	const high = 100.0
	for _, capacity := range []float64{37, 99, 100, 150, 199, 200, 730, 5000, 6399} {
		rate, capped := searchRate(high, func(r float64, _ int) bool { return r <= capacity })
		if capped || rate > capacity || rate < capacity*(1-1.0/sloStep)-1e-9 {
			t.Errorf("capacity %v: searched %v (capped %v)", capacity, rate, capped)
		}
	}
	if rate, capped := searchRate(high, func(float64, int) bool { return true }); !capped || rate != sloClimbCap*high {
		t.Errorf("unbounded capacity: searched %v (capped %v)", rate, capped)
	}
}

// TestCheckNDJSON covers the response checker on chunked, empty and
// failed answers.
func TestCheckNDJSON(t *testing.T) {
	want := digestOf([]uint32{1, 5, 9})
	chunked := "{\"query\":0,\"ids\":[1,5],\"more\":true,\"count\":0}\n{\"query\":0,\"ids\":[9],\"done\":true,\"count\":3}\n"
	if n, err := checkNDJSON([]byte(chunked), want); err != nil || n != 3 {
		t.Errorf("chunked answer: %d, %v", n, err)
	}
	if _, err := checkNDJSON([]byte(chunked), digestOf([]uint32{1, 5})); err != errWrong {
		t.Errorf("wrong answer: %v, want errWrong", err)
	}
	if _, err := checkNDJSON([]byte("{\"query\":0,\"done\":true,\"count\":0}\n"), digestOf(nil)); err != nil {
		t.Errorf("empty answer: %v", err)
	}
	if _, err := checkNDJSON([]byte("{\"query\":0,\"done\":true,\"count\":0,\"error\":\"boom\"}\n"), digestOf(nil)); err == nil {
		t.Error("error line accepted")
	}
	if _, err := checkNDJSON([]byte("{\"query\":0,\"ids\":[1],\"done\":true,\"count\":2}\n"), digestOf([]uint32{1})); err == nil {
		t.Error("count mismatch accepted")
	}
}
