package main

import (
	"regexp"
	"testing"
)

// The smoke test runs every workload on small inputs for a fraction of a
// second, untraced and traced. It checks the contract, not the speed:
// every metric BENCHMARK.json names comes out once with its unit, every
// answer agrees with the oracle, and counts depend on the seed alone.

var smoke = config{seed: 1, seconds: 0.3, scale: 0.02}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult holds one run's result to the listed metrics.
func checkResult(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Failures)
	}
	if len(rep.Result.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(rep.Result.Metrics), len(want))
	}
	for name, unit := range want {
		got, ok := rep.Result.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if got.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, spec.go %d + %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	check := func(name, unit string, m metricSpec) {
		if name != m.name || unit != m.unit {
			t.Errorf("BENCHMARK.json has %s [%s] where spec.go has %s [%s]", name, unit, m.name, m.unit)
		}
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, m := range bj.EndToEnd {
		check(m.Name, m.Unit, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		check(m.Name, m.Unit, perLayer[i])
	}
}

func TestEndToEndRuns(t *testing.T) {
	want := make(map[string]string)
	for _, m := range endToEnd {
		want[m.name] = m.unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // timings are not asserted
			cfg := smoke
			cfg.workload = w.name
			rep, err := runOne(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, want)
			for name, m := range rep.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %g, must never be 0", name, m.Value)
				}
			}
		})
	}
}

// traced runs one traced smoke run and checks it against the per-layer
// list.
func traced(t *testing.T, workload string, seed int64) *report {
	t.Helper()
	want := make(map[string]string)
	for _, m := range perLayer {
		want[m.name] = m.unit
	}
	cfg := smoke
	cfg.workload, cfg.seed, cfg.trace = workload, seed, true
	rep, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, rep, want)
	return rep
}

func TestTracedRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			traced(t, w.name, 1)
		})
	}
}

// Counts repeat exactly with the seed and move with it.
func TestCountsFollowSeed(t *testing.T) {
	first, again, other := traced(t, "cold_scan", 1), traced(t, "cold_scan", 1), traced(t, "cold_scan", 2)
	for _, name := range []string{"sidecar.keep_ratio", "join.candidates"} {
		a, b, c := first.Result.Metrics[name].Value, again.Result.Metrics[name].Value, other.Result.Metrics[name].Value
		if a != b {
			t.Errorf("%s: %g then %g with the same seed", name, a, b)
		}
		if a == c {
			t.Errorf("%s: %g with seeds 1 and 2 alike", name, a)
		}
	}
}
