package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"atgis/internal/cluster"
	"atgis/internal/geom"
	"atgis/internal/query"
)

// edgeFloats are the values where encoding/json's float form changes:
// signed zeros, both sides of the 1e-6 and 1e21 format switches, the
// subnormal and normal extremes, two-digit negative exponents, and the
// values it refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e-7, 1.5e-7, -3e-9, 1e-10, 1e-100, 1e-300,
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-320,
	math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// sameEncoding requires rec's appendJSON to write exactly what
// json.Marshal writes for it, or to fail with the same error text; the
// bytes already in the buffer must survive either way.
func sameEncoding(t *testing.T, rec record) {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	prefix := []byte("previous record\n")
	got, gotErr := rec.appendJSON(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("appendJSON clobbered the buffer: %q", got)
	}
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%+v: error %v, encoding/json %v", rec, gotErr, wantErr)
		}
	case !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("%+v:\n got  %s\n want %s", rec, got[len(prefix):], want)
	}
}

// randFloat draws from every scale encoding/json distinguishes, raw bit
// patterns (NaNs and infinities included) among them.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	default:
		return float64(r.Intn(2001)-1000) / 8
	}
}

func TestRecordEncodingMatchesEncodingJSON(t *testing.T) {
	base := featureRecord{Type: "feature", ID: 7, Offset: 1 << 40, BBox: [4]float64{-1.5, 2, 3.25, 4}, Area: 0.5, Perimeter: 12}
	// Every edge value in every float position, the others ordinary.
	for _, v := range edgeFloats {
		for field := 0; field < 6; field++ {
			rec := base
			if field < 4 {
				rec.BBox[field] = v
			} else if field == 4 {
				rec.Area = v
			} else {
				rec.Perimeter = v
			}
			sameEncoding(t, &rec)
		}
	}
	// Properties: HTML characters, line separators, invalid UTF-8, quotes,
	// backslashes and an empty value, in a map encoding/json sorts.
	props := []map[string]string{
		nil, {},
		{"name": "a<b>&c", "sep": "x\u2028y\u2029z", "bad": "\xff\xfe\x80", "q\"uote": `back\slash`, "": "", "ctl": "\x00\t\n"},
		{"\xc3": "\xed\xa0\x80", "é": "日本"},
	}
	for _, p := range props {
		rec := base
		rec.Properties = p
		sameEncoding(t, &rec)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		rec := featureRecord{
			Type: "feature", ID: r.Int63() - r.Int63(), Offset: r.Int63(),
			BBox: [4]float64{randFloat(r), randFloat(r), randFloat(r), randFloat(r)},
		}
		if r.Intn(2) == 0 {
			rec.Area = randFloat(r)
		}
		if r.Intn(2) == 0 {
			rec.Perimeter = randFloat(r)
		}
		sameEncoding(t, &rec)
		sameEncoding(t, &pairRecord{Type: "pair", AID: r.Int63() - r.Int63(), BID: r.Int63(), AOff: r.Int63(), BOff: -r.Int63()})
	}
	sameEncoding(t, &pairRecord{Type: "pair", AID: math.MinInt64, BID: math.MaxInt64})
}

func FuzzRecordEncode(f *testing.F) {
	f.Add(int64(1), int64(0), -1.5, 2.0, 3.25, 4.0, 0.5, 12.0, "name", "a<b>&c")
	f.Add(int64(-9), int64(1<<40), 1e-7, 1e21, math.MaxFloat64, 5e-324, math.Copysign(0, -1), 0.0, "", "")
	f.Add(int64(0), int64(0), math.NaN(), 0.0, 0.0, 0.0, math.Inf(1), math.Inf(-1), "\xff", "x\u2028y")
	f.Fuzz(func(t *testing.T, id, off int64, x0, y0, x1, y1, area, per float64, key, val string) {
		rec := featureRecord{Type: "feature", ID: id, Offset: off, BBox: [4]float64{x0, y0, x1, y1}, Area: area, Perimeter: per}
		if key != "" || val != "" {
			rec.Properties = map[string]string{key: val}
		}
		sameEncoding(t, &rec)
		sameEncoding(t, &pairRecord{Type: "pair", AID: id, BID: off, AOff: off ^ id, BOff: -id})
	})
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

// TestStreamFeatureRecordAllocs: streaming one feature record — building
// it from the match and writing it to the response — allocates at most
// once (nothing, once the writer's buffer has grown; the batch flush
// timer's arming averages out). Boxing the record, marshalling it and
// re-appending its newline cost three.
func TestStreamFeatureRecordAllocs(t *testing.T) {
	out := &ndjsonWriter{w: &discardWriter{h: http.Header{}}}
	defer out.stop()
	spec := &query.Spec{WantArea: true, WantPerimeter: true}
	m := query.Match{ID: 42, Offset: 123456, Box: geom.Box{MinX: -12.5, MinY: 3.25, MaxX: 1e-7, MaxY: 44}}
	v := query.FeatureVal{Box: geom.Box{MinX: -12.5, MinY: 3.25, MaxX: 1e-7, MaxY: 44}, Area: 1234.5678, Perimeter: 9.75}
	rec := new(featureRecord)
	emit := func(rec record) bool { return out.writeRecord(rec) }
	allocs := testing.AllocsPerRun(1000, func() {
		*rec = newFeatureRecord(spec, m, v)
		if !emit(rec) {
			t.Fatal("stream ended")
		}
	})
	if allocs > 1 {
		t.Fatalf("streaming a feature record costs %.1f allocations, want <= 1", allocs)
	}
}

// TestEncodedRecordsTakeClassifyShapePath pins the coordinator's
// recogniser (cluster.Classify) to this encoder: every feature and pair
// record it writes must classify as payload without allocating, which
// only the shape path does — a line that falls through to the full
// decode allocates. An encoder change the recogniser does not follow
// fails here rather than slowing the shard-hop merge unseen.
func TestEncodedRecordsTakeClassifyShapePath(t *testing.T) {
	var lines [][]byte
	add := func(rec record) {
		b, err := rec.appendJSON(nil)
		if err != nil {
			return // NaN or ±Inf: the stream fails before the record is sent
		}
		lines = append(lines, b)
	}
	base := featureRecord{Type: "feature", ID: -7, Offset: 1 << 40, BBox: [4]float64{-1.5, 2, 3.25, 4}}
	for _, v := range edgeFloats {
		for field := 0; field < 6; field++ {
			rec := base
			if field < 4 {
				rec.BBox[field] = v
			} else if field == 4 {
				rec.Area = v
			} else {
				rec.Perimeter = v
			}
			add(&rec)
		}
	}
	for _, p := range []map[string]string{
		{"name": "a<b>&c", "sep": "x\u2028y\u2029z", "bad": "\xff\xfe\x80", "q\"uote": `back\slash`, "": "", "ctl": "\x00\t\n\x1f"},
		{"\xc3": "\xed\xa0\x80", "é": "日本", "type": "summary"},
	} {
		rec := base
		rec.Area, rec.Perimeter, rec.Properties = 1e-7, 1e21, p
		add(&rec)
	}
	add(&pairRecord{Type: "pair", AID: math.MinInt64, BID: math.MaxInt64})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		rec := featureRecord{
			Type: "feature", ID: r.Int63() - r.Int63(), Offset: r.Int63(),
			BBox: [4]float64{randFloat(r), randFloat(r), randFloat(r), randFloat(r)},
		}
		if r.Intn(2) == 0 {
			rec.Area = randFloat(r)
		}
		if r.Intn(2) == 0 {
			rec.Perimeter = randFloat(r)
		}
		if r.Intn(8) == 0 {
			rec.Properties = map[string]string{"name": string(rune(r.Intn(0x3000))), "note": `a"b\c`}
		}
		add(&rec)
		add(&pairRecord{Type: "pair", AID: r.Int63() - r.Int63(), BID: r.Int63(), AOff: r.Int63(), BOff: -r.Int63()})
	}
	for _, line := range lines {
		if kind, err := cluster.Classify(line); kind != cluster.RecPayload || err != nil {
			t.Fatalf("Classify(%s) = %d, %v; want payload", line, kind, err)
		}
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for _, line := range lines {
			cluster.Classify(line)
		}
	}); allocs != 0 {
		for _, line := range lines {
			if testing.AllocsPerRun(1, func() { cluster.Classify(line) }) != 0 {
				t.Fatalf("Classify(%s) allocates: the line missed the shape path", line)
			}
		}
		t.Fatalf("classifying %d records cost %.0f allocations, want 0", len(lines), allocs)
	}
}
