// Package baselines_test cross-checks the three comparison engines
// against each other and against the query-package oracle: identical
// results, different cost structures (paper Fig. 10).
package baselines_test

import (
	"testing"
	"time"

	"atgis/internal/baselines/cluster"
	"atgis/internal/baselines/colscan"
	"atgis/internal/baselines/rtree"
	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/synth"
)

func features(n int) []geom.Feature {
	g := synth.New(synth.Config{Seed: 77, N: n, MultiPolyFrac: 0.2})
	var out []geom.Feature
	g.Each(func(f *geom.Feature) { out = append(out, *f) })
	for i := range out {
		out[i].Offset = int64(i)
	}
	return out
}

func oracleCount(feats []geom.Feature, ref geom.Geometry) int64 {
	var n int64
	for i := range feats {
		if geom.Intersects(feats[i].Geom, ref) {
			n++
		}
	}
	return n
}

func items(feats []geom.Feature) []rtree.Item {
	out := make([]rtree.Item, len(feats))
	for i, f := range feats {
		out[i] = rtree.Item{Box: f.Geom.Bound(), ID: f.ID, Geom: f.Geom}
	}
	return out
}

func TestRTreeSearchComplete(t *testing.T) {
	feats := features(500)
	tr := rtree.Build(items(feats), 8)
	if tr.LoadDur <= 0 {
		t.Error("load duration not recorded")
	}
	ref := query.ScaleBox(synth.Extent, 0.3)
	// Every item whose box intersects ref must be reported exactly once.
	want := map[int64]bool{}
	for _, f := range feats {
		if f.Geom.Bound().Intersects(ref) {
			want[f.ID] = true
		}
	}
	got := map[int64]int{}
	tr.Search(ref, func(it rtree.Item) bool {
		got[it.ID]++
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("search returned %d, want %d", len(got), len(want))
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("item %d reported %d times", id, n)
		}
		if !want[id] {
			t.Errorf("item %d should not match", id)
		}
	}
	// Early termination.
	count := 0
	tr.Search(ref, func(rtree.Item) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop count = %d", count)
	}
}

func TestRTreeEmptyAndSmall(t *testing.T) {
	tr := rtree.Build(nil, 8)
	tr.Search(geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, func(rtree.Item) bool {
		t.Error("empty tree returned an item")
		return true
	})
	one := rtree.Build(items(features(1)), 8)
	n := 0
	one.Search(geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}, func(rtree.Item) bool { n++; return true })
	if n != 1 {
		t.Errorf("single-item search = %d", n)
	}
}

func TestEnginesAgreeOnContainment(t *testing.T) {
	feats := features(400)
	ref := query.ScaleBox(synth.Extent, 0.2).AsPolygon()
	want := oracleCount(feats, ref)
	if want == 0 {
		t.Fatal("oracle found nothing")
	}

	rt := &rtree.Engine{Tree: rtree.Build(items(feats), 16), Refine: true}
	if got := rt.Containment(ref); got.Count != want {
		t.Errorf("rtree-G count = %d, want %d", got.Count, want)
	}

	cs := colscan.Load(feats, true)
	if got := cs.Containment(ref); got.Count != want {
		t.Errorf("colscan-G count = %d, want %d", got.Count, want)
	}

	// Box-only engines over-approximate (candidates >= exact).
	rtB := &rtree.Engine{Tree: rt.Tree, Refine: false}
	if got := rtB.Containment(ref); got.Count < want {
		t.Errorf("rtree-B count = %d < exact %d", got.Count, want)
	}
	csB := colscan.Load(feats, false)
	if got := csB.Containment(ref); got.Count < want {
		t.Errorf("colscan-B count = %d < exact %d", got.Count, want)
	}

	cl := cluster.New(cluster.Config{Nodes: 2, TaskStartup: time.Microsecond, ShuffleMBps: 10000}, feats)
	if got := cl.Containment(ref); got.Count != want {
		t.Errorf("cluster count = %d, want %d", got.Count, want)
	}
}

func TestEnginesAgreeOnAggregation(t *testing.T) {
	feats := features(300)
	ref := query.ScaleBox(synth.Extent, 0.25).AsPolygon()

	// Oracle sums.
	var wantArea, wantPerim float64
	var wantCount int64
	for i := range feats {
		if geom.Intersects(feats[i].Geom, ref) {
			wantCount++
			wantArea += geom.SphericalArea(feats[i].Geom)
			wantPerim += geom.Perimeter(feats[i].Geom, geom.Haversine)
		}
	}

	rt := &rtree.Engine{Tree: rtree.Build(items(feats), 16), Refine: true}
	ra := rt.Aggregation(ref, geom.Haversine)
	if ra.Count != wantCount || !close(ra.SumArea, wantArea) || !close(ra.SumPerimeter, wantPerim) {
		t.Errorf("rtree agg = %+v, want %d/%v/%v", ra, wantCount, wantArea, wantPerim)
	}

	cs := colscan.Load(feats, true)
	ca := cs.Aggregation(ref, geom.Haversine)
	if ca.Count != wantCount || !close(ca.SumArea, wantArea) {
		t.Errorf("colscan agg = %+v", ca)
	}

	cl := cluster.New(cluster.Config{Nodes: 3, TaskStartup: time.Microsecond, ShuffleMBps: 10000}, feats)
	la := cl.Aggregation(ref, geom.Haversine, true)
	if la.Count != wantCount || !close(la.SumArea, wantArea) {
		t.Errorf("cluster agg = %+v", la)
	}
	if la.MapTasks == 0 || la.ShuffledBytes == 0 {
		t.Errorf("cluster accounting missing: %+v", la)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-6*(scale+1)
}

func TestJoinsAgree(t *testing.T) {
	feats := features(200)
	var sideA, sideB []geom.Feature
	for _, f := range feats {
		if f.ID%2 == 0 {
			sideA = append(sideA, f)
		} else {
			sideB = append(sideB, f)
		}
	}
	// Oracle pair count.
	var want int64
	for i := range sideA {
		for j := range sideB {
			if geom.Intersects(sideA[i].Geom, sideB[j].Geom) {
				want++
			}
		}
	}

	rt := &rtree.Engine{Tree: rtree.Build(items(sideB), 16), Refine: true}
	pairs, completed := rt.Join(items(sideA), 0)
	if !completed || int64(len(pairs)) != want {
		t.Errorf("rtree join = %d (done=%v), want %d", len(pairs), completed, want)
	}
	// Capped join reports incomplete.
	if want > 1 {
		_, completed = rt.Join(items(sideA), 1)
		if completed {
			t.Error("capped join should be incomplete")
		}
	}

	ea := colscan.Load(sideA, true)
	eb := colscan.Load(sideB, true)
	st := ea.Join(eb, 0)
	if !st.Completed || st.Pairs != want {
		t.Errorf("colscan join = %+v, want %d", st, want)
	}
	if st.CandidateBytes < st.CandidateCount*8 {
		t.Error("candidate memory accounting missing")
	}
	// Candidate cap models MonetDB's memory exhaustion.
	if st.CandidateCount > 1 {
		st2 := ea.Join(eb, 1)
		if st2.Completed {
			t.Error("capped candidate join should be incomplete")
		}
	}

	cl := cluster.New(cluster.Config{Nodes: 2, TaskStartup: time.Microsecond, ShuffleMBps: 10000}, feats)
	res := cl.Join(func(f *geom.Feature) int {
		if f.ID%2 == 0 {
			return 0
		}
		return 1
	}, 30, geom.Intersects)
	if res.Pairs != want {
		t.Errorf("cluster join pairs = %d, want %d", res.Pairs, want)
	}
}

func TestClusterOverheadScalesWithShuffle(t *testing.T) {
	feats := features(200)
	ref := query.ScaleBox(synth.Extent, 0.5).AsPolygon()
	slow := cluster.New(cluster.Config{Nodes: 2, TaskStartup: time.Microsecond, ShuffleMBps: 1, BytesPerObject: 4096}, feats)
	fast := cluster.New(cluster.Config{Nodes: 2, TaskStartup: time.Microsecond, ShuffleMBps: 10000, BytesPerObject: 4096}, feats)
	rs := slow.Aggregation(ref, geom.Haversine, true)
	rf := fast.Aggregation(ref, geom.Haversine, true)
	if rs.Count != rf.Count {
		t.Fatalf("results differ: %d vs %d", rs.Count, rf.Count)
	}
	if rs.SimulatedOverhead <= rf.SimulatedOverhead {
		t.Errorf("slow shuffle overhead %v <= fast %v", rs.SimulatedOverhead, rf.SimulatedOverhead)
	}
	// Aggregation shuffles more than containment (the paper's 3x
	// disparity driver).
	rc := slow.Containment(ref)
	if rc.ShuffledBytes >= rs.ShuffledBytes {
		t.Errorf("containment shuffled %d >= aggregation %d", rc.ShuffledBytes, rs.ShuffledBytes)
	}
}
