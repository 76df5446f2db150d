package geojson

import (
	"testing"

	"atgis/internal/geom"
	"atgis/internal/lexer"
)

// allocDoc builds a moderately sized document for allocation budgets.
func allocDoc(t *testing.T) ([]byte, int) {
	t.Helper()
	var feats []geom.Feature
	for i := 0; i < 10; i++ {
		base := testFeatures()
		for j := range base {
			base[j].ID += int64(i * len(base))
			feats = append(feats, base[j])
		}
	}
	return buildDoc(t, feats), len(feats)
}

// TestProcessBlockPATAllocBudget locks in the block parser's allocation
// discipline: a pooled machine plus recycled builder buffers leave only
// the escaping feature data (geometry slices, property maps, the result
// slice) — a small constant number of allocations per feature.
func TestProcessBlockPATAllocBudget(t *testing.T) {
	doc, n := allocDoc(t)
	cfg := &Config{}
	bounds := FindFeatureBoundaries(doc, 1)
	if len(bounds) == 0 {
		t.Fatal("no boundaries")
	}
	start := bounds[0]
	// Warm the machine pool so the steady state is measured.
	ProcessBlockPAT(doc, start, int64(len(doc)), cfg)

	var got int
	allocs := testing.AllocsPerRun(20, func() {
		r := ProcessBlockPAT(doc, start, int64(len(doc)), cfg)
		got = len(r.Features)
	})
	if got != n {
		t.Fatalf("features = %d, want %d", got, n)
	}
	perFeature := allocs / float64(n)
	if perFeature > 8 {
		t.Errorf("ProcessBlockPAT allocates %.1f/op = %.2f per feature, budget 8", allocs, perFeature)
	}
}

// TestProcessBlockFATAllocBudget bounds speculative block processing.
// A speculative run is a PAT run that also keeps a spec tape: the machine
// shell, tapes, feature buffers and frame copies all recycle through pools
// (machinePool + specStatePool) and nothing is buffered per token, so the
// steady state allocates the escaping feature data and the variant list —
// PAT's count, for a block of known start state and, on a document whose
// in-string reading holds no feature, for one of unknown start state too.
func TestProcessBlockFATAllocBudget(t *testing.T) {
	doc, n := allocDoc(t)
	cfg := &Config{}
	for name, process := range map[string]func() BlockResult{
		"ProcessBlockFAT": func() BlockResult { return ProcessBlockFAT(doc, 0, int64(len(doc)), cfg) },
		"ProcessBlockFATFrom": func() BlockResult {
			return ProcessBlockFATFrom(doc, 0, int64(len(doc)), lexer.JSONDefault, cfg)
		},
	} {
		process().Release()
		var got int
		allocs := testing.AllocsPerRun(20, func() {
			r := process()
			got = len(r.Variants[0].state.features)
			r.Release()
		})
		if got != n {
			t.Fatalf("%s: features = %d, want %d", name, got, n)
		}
		if perFeature := allocs / float64(n); perFeature > 5 {
			t.Errorf("%s allocates %.1f/op = %.2f per feature, budget 5", name, allocs, perFeature)
		}
	}
}

// TestFATFoldAllocBudget measures the whole FAT steady state — block
// processing plus ordered merge — and implicitly that Fold.Add recycles
// the detached variant states (a leak would show up as pool misses and
// fresh tape/feature-buffer allocations every block).
func TestFATFoldAllocBudget(t *testing.T) {
	doc, n := allocDoc(t)
	cfg := &Config{}
	run := func() int {
		emitted := 0
		fold := NewFold(doc, cfg, func(FeatureOut) { emitted++ })
		step := int64(len(doc) / 7)
		prev := int64(0)
		for prev < int64(len(doc)) {
			end := prev + step
			if end > int64(len(doc)) {
				end = int64(len(doc))
			}
			fold.Add(ProcessBlockFAT(doc, prev, end, cfg))
			prev = end
		}
		if err := fold.Finish(); err != nil {
			t.Fatal(err)
		}
		return emitted
	}
	run() // warm the pools
	var got int
	allocs := testing.AllocsPerRun(20, func() { got = run() })
	if got != n {
		t.Fatalf("features = %d, want %d", got, n)
	}
	perFeature := allocs / float64(n)
	if perFeature > 8 {
		t.Errorf("FAT process+merge allocates %.1f/op = %.2f per feature, budget 8", allocs, perFeature)
	}
}
