package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atgis"
	"atgis/internal/synth"
)

// writeSynthetic generates a synthetic GeoJSON dataset on disk. scale
// shrinks the extent features are drawn from (0 = whole world); small
// values pack features densely enough that spatial joins find pairs.
func writeSyntheticScaled(t *testing.T, n int, scale float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.geojson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	g := synth.New(synth.Config{Seed: 42, N: n, MultiPolyFrac: 0.1, LineFrac: 0.1, MetadataBytes: 40, ExtentScale: scale})
	if err := g.WriteGeoJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeSynthetic(t *testing.T, n int) string {
	t.Helper()
	return writeSyntheticScaled(t, n, 0)
}

// newTestServer assembles an engine + server + httptest listener over a
// freshly generated dataset registered as "data".
func newTestServer(t *testing.T, features int, ecfg atgis.EngineConfig) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerWithPath(t, writeSynthetic(t, features), ecfg)
}

func newTestServerWithPath(t *testing.T, path string, ecfg atgis.EngineConfig) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerBlocks(t, path, ecfg, 8192)
}

// newTestServerBlocks is newTestServerWithPath with the server's block
// size (its -block flag) set to blockSize.
func newTestServerBlocks(t *testing.T, path string, ecfg atgis.EngineConfig, blockSize int) (*Server, *httptest.Server) {
	t.Helper()
	eng := atgis.NewEngine(ecfg)
	srv := New(Config{Engine: eng, Options: atgis.Options{BlockSize: blockSize}, AllowRegister: true})
	if err := srv.RegisterFile("data", path, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		eng.Close()
	})
	return srv, ts
}

// postJSON posts a JSON body and returns the response.
func postJSON(t *testing.T, client *http.Client, url string, body string, tenant string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Atgis-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ndjsonLines fully reads an NDJSON body into decoded records.
func ndjsonLines(t *testing.T, body io.Reader) []map[string]any {
	t.Helper()
	var recs []map[string]any
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAggregationQuery(t *testing.T) {
	_, ts := newTestServer(t, 300, atgis.EngineConfig{Workers: 2})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[-180,-90,180,90],"want":["area","perimeter","mbr"]}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	recs := ndjsonLines(t, resp.Body)
	if len(recs) != 1 || recs[0]["type"] != "summary" {
		t.Fatalf("aggregation response = %v", recs)
	}
	sum := recs[0]
	if sum["scanned"].(float64) != 300 || sum["matched"].(float64) == 0 {
		t.Fatalf("summary = %v", sum)
	}
	if sum["sum_area"].(float64) <= 0 || sum["mbr"] == nil {
		t.Fatalf("aggregates missing: %v", sum)
	}
}

func TestContainmentStreamsFeatures(t *testing.T) {
	_, ts := newTestServer(t, 300, atgis.EngineConfig{Workers: 2})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"containment","ref":[-180,-90,180,90],"want":["area"],"limit":5}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	recs := ndjsonLines(t, resp.Body)
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 5 features + summary", len(recs))
	}
	for _, rec := range recs[:5] {
		if rec["type"] != "feature" || rec["bbox"] == nil {
			t.Fatalf("feature record = %v", rec)
		}
	}
	sum := recs[5]
	if sum["type"] != "summary" {
		t.Fatalf("last record = %v", sum)
	}
	// The limit caps the stream, not the pass: the summary still covers
	// every feature.
	if sum["scanned"].(float64) != 300 || sum["matched"].(float64) < 5 {
		t.Fatalf("summary = %v", sum)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, 50, atgis.EngineConfig{Workers: 2})
	cases := []struct {
		body string
		want int
	}{
		{`{"source":"nope","kind":"aggregation","ref":[0,0,1,1]}`, http.StatusNotFound},
		{`{"source":"data","kind":"wat","ref":[0,0,1,1]}`, http.StatusBadRequest},
		{`{"source":"data","kind":"aggregation","ref":[0,0]}`, http.StatusBadRequest},
		{`{"source":"data","kind":"aggregation","ref":[0,0,1,1],"predicate":"nope"}`, http.StatusBadRequest},
		{`{"source":"data","kind":"aggregation","ref":[0,0,1,1],"want":["nope"]}`, http.StatusBadRequest},
		{`{"source":"data","kind":"aggregation","ref":[0,0,1,1],"unknown_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/query", tc.body, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %s: status %d (%s), want %d", tc.body, resp.StatusCode, body, tc.want)
		}
		if !bytes.Contains(body, []byte("error")) {
			t.Errorf("body %s: error payload missing: %s", tc.body, body)
		}
	}
}

func TestJoinStreamsPairs(t *testing.T) {
	// Densely packed features (5% of the world extent) so the PBSM join
	// finds intersecting pairs.
	_, ts := newTestServerWithPath(t, writeSyntheticScaled(t, 200, 0.05), atgis.EngineConfig{Workers: 2})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/join",
		`{"source":"data","cell":15,"limit":10}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	recs := ndjsonLines(t, resp.Body)
	if len(recs) == 0 {
		t.Fatal("empty join response")
	}
	sum := recs[len(recs)-1]
	if sum["type"] != "summary" {
		t.Fatalf("last record = %v", sum)
	}
	npairs := 0
	for _, rec := range recs[:len(recs)-1] {
		if rec["type"] != "pair" {
			t.Fatalf("record = %v", rec)
		}
		// Parity mask: side A ids are even, side B odd.
		if int64(rec["a_id"].(float64))%2 != 0 || int64(rec["b_id"].(float64))%2 != 1 {
			t.Fatalf("pair violates parity mask: %v", rec)
		}
		npairs++
	}
	if npairs == 0 || npairs > 10 {
		t.Fatalf("streamed %d pairs, want 1..10", npairs)
	}
	if sum["streamed"].(float64) != float64(npairs) || sum["candidates"].(float64) == 0 {
		t.Fatalf("summary = %v", sum)
	}

	// A pathologically fine grid is rejected instead of allocating
	// billions of cells (one unauthenticated request must not be able
	// to take the process down).
	for _, body := range []string{
		`{"source":"data","cell":0.0001}`,
		`{"source":"data","cell":-1}`,
		`{"source":"data","cell":720}`,
	} {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/join", body, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("join %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestRegisterListStats(t *testing.T) {
	srv, ts := newTestServer(t, 100, atgis.EngineConfig{Workers: 2})
	second := writeSynthetic(t, 50)

	// Register a second source over HTTP.
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sources",
		fmt.Sprintf(`{"name":"more","path":%q}`, second), "")
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("register status %d: %s", resp.StatusCode, b)
	}
	resp.Body.Close()

	// Duplicate names conflict.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/sources",
		fmt.Sprintf(`{"name":"more","path":%q}`, second), "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Both sources listed.
	lresp, err := ts.Client().Get(ts.URL + "/v1/sources")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Sources []sourceInfo `json:"sources"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Sources) != 2 {
		t.Fatalf("listed %d sources, want 2", len(listing.Sources))
	}

	// A completed query bumps the source's pass counter in /v1/stats.
	qresp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"more","kind":"aggregation","ref":[-180,-90,180,90]}`, "")
	io.Copy(io.Discard, qresp.Body)
	qresp.Body.Close()

	sresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Engine.Pool.Workers != 2 {
		t.Fatalf("pool stats = %+v", stats.Engine.Pool)
	}
	if stats.Sources["more"].Passes != 1 || stats.Sources["data"].Passes != 0 {
		t.Fatalf("pass counters = %+v", stats.Sources)
	}
	// The weighted block-dispatch scheduler is surfaced: the completed
	// pass flowed through it (grant counter advanced) and no tenant
	// entry lingers once the pass deregistered.
	if stats.Engine.Scheduler == nil || stats.Engine.Scheduler.TotalGrantedBlocks == 0 {
		t.Fatalf("scheduler stats = %+v, want granted blocks > 0", stats.Engine.Scheduler)
	}
	if len(stats.Engine.Scheduler.Tenants) != 0 {
		t.Fatalf("idle scheduler lists tenants: %+v", stats.Engine.Scheduler.Tenants)
	}
	if srv.eng.Stats().Pool.Workers != 2 {
		t.Fatal("engine stats disagree")
	}
}

// TestRegisterRejectsReaderSource: the registry exists for repeated
// reuse, so heap-buffered reader sources are refused with the typed
// error.
func TestRegisterRejectsReaderSource(t *testing.T) {
	eng := atgis.NewEngine(atgis.EngineConfig{Workers: 1})
	defer eng.Close()
	srv := New(Config{Engine: eng})
	defer srv.Close()

	src, err := atgis.ReaderSource(strings.NewReader(`{"type":"FeatureCollection","features":[]}`), atgis.GeoJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	err = srv.RegisterSource("piped", src, "")
	if !errors.Is(err, atgis.ErrBufferedSource) {
		t.Fatalf("RegisterSource(reader-backed) = %v, want ErrBufferedSource", err)
	}
}

// TestFloodingTenantGets429QuietTenantCompletes is the acceptance
// scenario: with admission enabled, a tenant flooding the engine
// overflows its own queue (429 + Retry-After) while a second tenant's
// sequential queries all complete.
func TestFloodingTenantGets429QuietTenantCompletes(t *testing.T) {
	// Small blocks make each pass slow enough that concurrent requests
	// pile up behind MaxInFlight=1.
	_, ts := newTestServerBlocks(t, writeSynthetic(t, 2000), atgis.EngineConfig{
		Workers:     2,
		MaxInFlight: 1,
		TenantQueue: 2,
	}, 2048)
	const query = `{"source":"data","kind":"aggregation","ref":[-180,-90,180,90],"want":["area"]}`

	stop := make(chan struct{})
	var flooders sync.WaitGroup
	var got429, got200 atomic.Int64
	var sawRetryAfter atomic.Bool
	for i := 0; i < 16; i++ {
		flooders.Add(1)
		go func() {
			defer flooders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp := postJSON(t, ts.Client(), ts.URL+"/v1/query", query, "flood")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusTooManyRequests:
					got429.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						sawRetryAfter.Store(true)
					}
				case http.StatusOK:
					got200.Add(1)
				default:
					t.Errorf("flood request status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// The quiet tenant issues sequential queries while the flood runs;
	// every one must complete (its own queue never fills, and the
	// round-robin gate schedules it ahead of the flood's backlog).
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/query", query, "quiet")
		recs := ndjsonLines(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quiet query %d: status %d", i, resp.StatusCode)
		}
		if len(recs) != 1 || recs[0]["type"] != "summary" {
			t.Fatalf("quiet query %d: response %v", i, recs)
		}
	}
	close(stop)
	flooders.Wait()

	if got429.Load() == 0 {
		t.Fatal("flooding tenant never saw 429 — admission queue cap not enforced")
	}
	if !sawRetryAfter.Load() {
		t.Fatal("429 responses carried no Retry-After header")
	}
	if got200.Load() == 0 {
		t.Fatal("flood tenant made no progress at all — gate is starving, not shaping")
	}
}

// TestClientDisconnectCancelsPass: dropping the connection mid-stream
// must cancel the underlying pipeline, release the admission slot and
// leak no goroutines.
func TestClientDisconnectCancelsPass(t *testing.T) {
	_, ts := newTestServerBlocks(t, writeSynthetic(t, 5000), atgis.EngineConfig{
		Workers:     2,
		MaxInFlight: 1, // a leaked slot would wedge the final query below
	}, 1024)
	const query = `{"source":"data","kind":"containment","ref":[-180,-90,180,90]}`

	// Warm up the HTTP stack so its long-lived goroutines are in the
	// baseline.
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[0,0,1,1]}`, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/query", query, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		// Read one streamed record, then hang up mid-stream.
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("first record: %v", err)
		}
		resp.Body.Close()
	}

	// The cancelled passes must wind down: goroutine count returns to
	// the baseline (with slack for idle HTTP conns being torn down).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+5 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after disconnects: baseline=%d now=%d", baseline, n)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the admission slot was released: with MaxInFlight=1 a leaked
	// slot would park this query in the queue forever.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
			`{"source":"data","kind":"aggregation","ref":[0,0,1,1]}`, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("post-disconnect query: status %d", resp.StatusCode)
		}
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("query after disconnects never completed — admission slot leaked")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, 10, atgis.EngineConfig{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// flushCounter is a ResponseWriter that counts Flush calls so the
// NDJSON batching policy is observable. The count is atomic because
// the interval timer flushes from its own goroutine.
type flushCounter struct {
	header  http.Header
	flushes atomic.Int32
}

func (f *flushCounter) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *flushCounter) Write(b []byte) (int, error) { return len(b), nil }
func (f *flushCounter) WriteHeader(int)             {}
func (f *flushCounter) Flush()                      { f.flushes.Add(1) }

// TestNDJSONBatchedFlushing: records flush in batches of flushBatch (or
// after flushInterval on a trickling stream), not one Flush per record,
// and terminal records always flush the tail.
func TestNDJSONBatchedFlushing(t *testing.T) {
	fc := &flushCounter{}
	out := &ndjsonWriter{w: fc, flusher: fc}
	defer out.stop()
	const records = 200
	for i := 0; i < records; i++ {
		if !out.write(map[string]int{"i": i}) {
			t.Fatal("write failed")
		}
	}
	// 200 back-to-back records batch into ~records/flushBatch flushes;
	// a slow host can add a few interval-based ones, but anywhere near
	// one flush per record means batching is broken.
	if n := fc.flushes.Load(); n < records/flushBatch {
		t.Fatalf("flushes = %d for %d records, want at least %d", n, records, records/flushBatch)
	}
	if n := fc.flushes.Load(); n > records/4 {
		t.Fatalf("flushes = %d for %d records; still flushing per record", n, records)
	}

	before := fc.flushes.Load()
	if !out.writeFinal(map[string]string{"type": "summary"}) {
		t.Fatal("writeFinal failed")
	}
	if fc.flushes.Load() <= before {
		t.Fatal("terminal record did not flush the batch")
	}

	// A lone buffered record flushes once the interval timer fires —
	// a sparse-match stream's record must not wait for the next record
	// (or the summary) to become visible to the client.
	trickle := &flushCounter{}
	slow := &ndjsonWriter{w: trickle, flusher: trickle}
	defer slow.stop()
	slow.write(map[string]int{"i": 0})
	deadline := time.Now().Add(5 * time.Second)
	for trickle.flushes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval elapsed but the buffered record never flushed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// stop disarms the timer and flushes the tail, so a handler return
	// cannot be followed by a late timer touching the ResponseWriter.
	slow.write(map[string]int{"i": 1})
	n := trickle.flushes.Load()
	slow.stop()
	if trickle.flushes.Load() != n+1 {
		t.Fatalf("stop did not flush the tail exactly once (flushes %d -> %d)", n, trickle.flushes.Load())
	}
	time.Sleep(flushInterval + 20*time.Millisecond)
	if trickle.flushes.Load() != n+1 {
		t.Fatal("timer fired after stop")
	}
}

// postJSONGzip posts a JSON body with an explicit Accept-Encoding so
// the transport's transparent decompression stays out of the way and
// the raw gzip stream reaches the test.
func postJSONGzip(t *testing.T, client *http.Client, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// summaryTiming matches the summary fields that legitimately differ
// between two runs of one request: its timings and its block count.
var summaryTiming = regexp.MustCompile(`"(wall_ms|mb_per_s|blocks)":[^,}]*,?`)

// TestGzipQueryStream: a client sending Accept-Encoding: gzip receives
// the NDJSON stream gzip-compressed — with a Content-Encoding header, a
// valid gzip trailer, and a body that inflates to the identity body byte
// for byte (summary timings aside) — while clients without the header
// keep receiving identity responses. The stream spans several batch
// flushes, so the compressor is drained mid-stream, and it must shrink
// the body to under half: switching compression off, or to a
// Huffman-only level, fails here.
func TestGzipQueryStream(t *testing.T) {
	_, ts := newTestServer(t, 300, atgis.EngineConfig{Workers: 2})
	body := `{"source":"data","kind":"containment","ref":[-180,-90,180,90]}`

	plain := postJSON(t, ts.Client(), ts.URL+"/v1/query", body, "")
	defer plain.Body.Close()
	if enc := plain.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity request got Content-Encoding %q", enc)
	}
	want, err := io.ReadAll(plain.Body)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSONGzip(t, ts.Client(), ts.URL+"/v1/query", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	if vary := resp.Header.Get("Vary"); vary != "Accept-Encoding" {
		t.Fatalf("Vary %q, want Accept-Encoding", vary)
	}
	compressed, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	// A truncated gzip stream (missing trailer) fails here.
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip stream did not terminate cleanly: %v", err)
	}

	if n := bytes.Count(want, []byte(`"type":"feature"`)); n <= 2*flushBatch {
		t.Fatalf("identity stream has %d features; want more than %d to span several flushes", n, 2*flushBatch)
	}
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if !bytes.Contains(lines[len(lines)-1], []byte(`"type":"summary"`)) {
		t.Fatalf("terminal record = %s", lines[len(lines)-1])
	}
	if g, w := summaryTiming.ReplaceAll(got, nil), summaryTiming.ReplaceAll(want, nil); !bytes.Equal(g, w) {
		t.Fatalf("inflated gzip body differs from the identity body:\n gzip: %.300s\n  identity: %.300s", g, w)
	}
	if 2*len(compressed) >= len(want) {
		t.Fatalf("gzip body is %d B for a %d B identity body; want under half", len(compressed), len(want))
	}
}

// TestGzipJoinOrdered: the join stream composes gzip with the sweep's
// ordered fold, and the pair sequence is identical across requests.
func TestGzipJoinOrdered(t *testing.T) {
	_, ts := newTestServerWithPath(t, writeSyntheticScaled(t, 200, 0.05), atgis.EngineConfig{Workers: 2})
	body := `{"source":"data","cell":1,"mask":"both"}`

	collect := func() []string {
		resp := postJSONGzip(t, ts.Client(), ts.URL+"/v1/join", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("Content-Encoding %q, want gzip", enc)
		}
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var pairs []string
		for _, rec := range ndjsonLines(t, zr) {
			if rec["type"] == "pair" {
				pairs = append(pairs, fmt.Sprintf("%v:%v", rec["a_off"], rec["b_off"]))
			}
		}
		if err := zr.Close(); err != nil {
			t.Fatal(err)
		}
		return pairs
	}
	first := collect()
	if len(first) == 0 {
		t.Fatal("ordered join streamed no pairs")
	}
	second := collect()
	if len(second) != len(first) {
		t.Fatalf("runs streamed %d vs %d pairs", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("ordered join stream diverged at pair %d", i)
		}
	}

	// The negative declination (q=0) must disable compression.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/join", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip;q=0")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("gzip;q=0 still got Content-Encoding %q", enc)
	}
	io.Copy(io.Discard, resp.Body)

	if resp := postJSON(t, ts.Client(), ts.URL+"/v1/join",
		`{"source":"data","order_window":-1}`, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative order_window: status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestStatsJoinCounters: after a join completes, the scheduler block of
// /v1/stats reports cell-batch grants (the join's scheduling quantum).
func TestStatsJoinCounters(t *testing.T) {
	_, ts := newTestServerWithPath(t, writeSyntheticScaled(t, 150, 0.05), atgis.EngineConfig{Workers: 2})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/join", `{"source":"data","cell":1,"mask":"both"}`, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats struct {
		Engine struct {
			Scheduler struct {
				TotalGrantedBlocks      uint64 `json:"total_granted_blocks"`
				TotalGrantedCellBatches uint64 `json:"total_granted_cell_batches"`
			} `json:"scheduler"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sched := stats.Engine.Scheduler
	if sched.TotalGrantedCellBatches == 0 {
		t.Fatal("join completed but no cell-batch grants recorded")
	}
	if sched.TotalGrantedBlocks <= sched.TotalGrantedCellBatches {
		t.Fatalf("blocks %d should exceed cell batches %d (partition pass dispatches blocks too)",
			sched.TotalGrantedBlocks, sched.TotalGrantedCellBatches)
	}
}

// TestAcceptsGzipCaseInsensitive: content-coding tokens and the q
// parameter name are case-insensitive (RFC 9110).
func TestAcceptsGzipCaseInsensitive(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"Gzip, deflate", true},
		{"deflate, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip;Q=0", false},
		{"GZIP; Q=0.0", false},
		{"deflate", false},
		{"", false},
		{"x-gzip", false},
	}
	for _, tc := range cases {
		r, _ := http.NewRequest(http.MethodGet, "/", nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}
