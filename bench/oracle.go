package main

import (
	"context"
	"fmt"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/query"
)

// The oracle shares no lexer or parser with the engine: window answers
// come from the generator's features (bounding-box test, then the
// scalar geom.Intersects), join answers from one single-worker buffered
// join that a nested loop over a subsample must agree with.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvID folds one feature id into an FNV-1a digest, so a digest over a
// stream of ids depends on their order as well as their values.
func fnvID(h uint64, id int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(id >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// windowWant is a window's expected answer: how many features match
// and the digest of their ids in file order.
type windowWant struct {
	box     geom.Box
	matched int64
	ids     uint64
}

func (d *dataset) want(box geom.Box) windowWant {
	w := windowWant{box: box, ids: fnvOffset}
	ref := box.AsPolygon()
	for i := range d.feats {
		if d.bounds[i].Intersects(box) && geom.Intersects(d.feats[i].Geom, ref) {
			w.matched++
			w.ids = fnvID(w.ids, d.feats[i].ID)
		}
	}
	return w
}

func (d *dataset) wantAll(boxes []geom.Box) []windowWant {
	out := make([]windowWant, len(boxes))
	for i, b := range boxes {
		out[i] = d.want(b)
	}
	return out
}

// checkMatches compares a library containment result with the oracle.
// scanned is the feature count a cold pass must have examined, or -1
// for a warm pass, which examines only what the index keeps. OSM XML
// numbers its ways and relations itself, so only counts are comparable
// there.
func (w windowWant) checkMatches(res *atgis.Result, scanned int, idsComparable bool) error {
	if scanned >= 0 && res.Res.Scanned != int64(scanned) {
		return fmt.Errorf("scanned %d features, want %d", res.Res.Scanned, scanned)
	}
	if res.Res.Count != w.matched || int64(len(res.Res.Matches)) != w.matched {
		return fmt.Errorf("matched %d (%d kept), want %d", res.Res.Count, len(res.Res.Matches), w.matched)
	}
	if !idsComparable {
		return nil
	}
	h := uint64(fnvOffset)
	for _, m := range res.Res.Matches {
		h = fnvID(h, m.ID)
	}
	if h != w.ids {
		return fmt.Errorf("matched ids differ from the oracle's (digest %x, want %x)", h, w.ids)
	}
	return nil
}

// pairDigest is an order-independent digest of a pair set: streamed
// joins emit in any order.
type pairDigest struct {
	n   int
	sum uint64
}

func (p *pairDigest) add(aid, bid int64) {
	x := uint64(aid)*0x9E3779B97F4A7C15 ^ uint64(bid)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	p.n++
	p.sum += x
}

// joinWant is a join's expected pair set.
type joinWant struct {
	digest pairDigest
	pairs  map[[2]int64]bool
}

func (w *joinWant) check(got pairDigest) error {
	if got != w.digest {
		return fmt.Errorf("join produced %d pairs (digest %x), want %d (digest %x)",
			got.n, got.sum, w.digest.n, w.digest.sum)
	}
	return nil
}

// parityMask is the join's side split: even ids join odd ids. It reads
// only the id, so sidecar-enabled engines may partition from the tape.
func parityMask(f *geom.Feature) uint8 {
	if f.ID%2 == 0 {
		return query.SideA
	}
	return query.SideB
}

func paritySpec() atgis.JoinSpec {
	return atgis.JoinSpec{Mask: parityMask, CellSize: 1, BoundsSafeMask: true}
}

// joinOracle derives d's expected pair set. A cross-check that
// disagrees is a failed op, not an error: the run goes on with the
// engine's own answer and reports correct: false.
func (e *env) joinOracle(d *dataset) (*joinWant, error) {
	w, err := joinOracle(d)
	if w == nil {
		return nil, err
	}
	e.tally.count("join oracle cross-check", err)
	return w, nil
}

// joinOracle derives the expected pair set of the parity join over d's
// GeoJSON file and cross-checks it: join.NestedLoop over the first
// crossCheckN generator features must find exactly the pairs the
// engine found among those features. A disagreement is returned as an
// error for the caller to count as a failed op.
func joinOracle(d *dataset) (*joinWant, error) {
	src, err := atgis.OpenMapped(d.path[atgis.GeoJSON], atgis.GeoJSON)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	eng := atgis.NewEngine(atgis.EngineConfig{Workers: 1})
	defer eng.Close()
	jr, err := eng.Join(context.Background(), src, paritySpec(), atgis.Options{})
	if err != nil {
		return nil, fmt.Errorf("oracle join: %w", err)
	}
	w := &joinWant{pairs: make(map[[2]int64]bool, len(jr.Pairs))}
	for _, p := range jr.Pairs {
		w.digest.add(p.AID, p.BID)
		w.pairs[[2]int64{p.AID, p.BID}] = true
	}

	sub := min(crossCheckN, len(d.feats))
	var as, bs []geom.Feature
	for _, f := range d.feats[:sub] {
		if parityMask(&f) == query.SideA {
			as = append(as, f)
		} else {
			bs = append(bs, f)
		}
	}
	var nested, engine pairDigest
	for _, p := range join.NestedLoop(as, bs, geom.Intersects) {
		nested.add(p.AID, p.BID)
	}
	maxID := d.feats[sub-1].ID
	for _, p := range jr.Pairs {
		if p.AID <= maxID && p.BID <= maxID {
			engine.add(p.AID, p.BID)
		}
	}
	if nested != engine {
		return w, fmt.Errorf("nested loop over %d features finds %d pairs, the engine %d", sub, nested.n, engine.n)
	}
	return w, nil
}
