package server

// Cluster-mode end-to-end tests: real worker Servers behind httptest
// listeners, a coordinator Server scattering over them, and the
// single-node Server as the reference. The load-bearing property is
// byte-identity — the coordinator must forward exactly the records a
// single node would produce, in the same order, whether or not a worker
// died along the way.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atgis"
	"atgis/internal/cluster"
	"atgis/internal/faultinject"
	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/sidecar"
)

// startWorker stands up one worker node serving path as "data".
func startWorker(t *testing.T, path string) *httptest.Server {
	t.Helper()
	_, ts := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})
	return ts
}

// sidecarOf is the worker's sidecar state for its "data" source.
func sidecarOf(t *testing.T, srv *Server) atgis.SidecarStats {
	t.Helper()
	e, ok := srv.source("data")
	if !ok {
		t.Fatal("worker has no data source")
	}
	return e.src.(*atgis.MappedSource).SidecarStats()
}

// copyOf gives a worker its own copy of the dataset, so that its sidecar
// is its own too (same bytes: the coordinator sees one source).
func copyOf(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dup := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := os.WriteFile(dup, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dup
}

// startCoordinator assembles a coordinator Server over the worker URLs,
// with test-speed health probes and retry backoff.
func startCoordinator(t *testing.T, workers ...string) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Workers:        workers,
		HealthInterval: 20 * time.Millisecond,
		Backoff:        time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	srv := New(Config{Cluster: cl})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		cl.Stop()
	})
	return cl, ts
}

// rawLines reads an NDJSON body into raw text lines.
func rawLines(t *testing.T, body io.Reader) []string {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []string
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// splitStream separates a stream's payload lines from its terminal
// summary record.
func splitStream(t *testing.T, lines []string) ([]string, map[string]any) {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	var sum map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("bad terminal record %q: %v", lines[len(lines)-1], err)
	}
	if sum["type"] != "summary" {
		t.Fatalf("stream ends with %q, want summary", lines[len(lines)-1])
	}
	return lines[:len(lines)-1], sum
}

// fetchStream posts body to url and returns the split NDJSON response.
func fetchStream(t *testing.T, ts *httptest.Server, path, body string) ([]string, map[string]any) {
	t.Helper()
	resp := postJSON(t, ts.Client(), ts.URL+path, body, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, msg)
	}
	return splitStream(t, rawLines(t, resp.Body))
}

// samePayload requires two payload streams to be byte-identical.
func samePayload(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d payload lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("payload line %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

func TestClusterQueryMatchesSingleNode(t *testing.T) {
	path := writeSynthetic(t, 400)
	_, single := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})

	t.Run("cold workers", func(t *testing.T) {
		w1, w2 := startWorker(t, path), startWorker(t, path)
		_, coord := startCoordinator(t, w1.URL, w2.URL)
		checkClusterQuery(t, single, coord)
	})

	// Workers that may write sidecars: the first scattered request is each
	// worker's recording pass, every later one is planned from the tape.
	t.Run("readwrite workers", func(t *testing.T) {
		// A pool size GOMAXPROCS cannot be mistaken for.
		poolSize := runtime.GOMAXPROCS(0) + 1
		rw := atgis.EngineConfig{Workers: poolSize, Sidecar: atgis.SidecarReadWrite}
		s1, w1 := newTestServerWithPath(t, copyOf(t, path), rw)
		s2, w2 := newTestServerWithPath(t, copyOf(t, path), rw)
		_, coord := startCoordinator(t, w1.URL, w2.URL)
		checkClusterQuery(t, single, coord)
		for i, srv := range []*Server{s1, s2} {
			if st := sidecarOf(t, srv); !st.Built || st.Misses != 1 {
				t.Fatalf("worker %d: first shard pass did not record the tape: %+v", i+1, st)
			}
		}
		before := []int64{sidecarOf(t, s1).Hits, sidecarOf(t, s2).Hits}
		checkClusterQuery(t, single, coord)
		for i, srv := range []*Server{s1, s2} {
			if st := sidecarOf(t, srv); st.Hits <= before[i] || st.Misses != 1 {
				t.Fatalf("worker %d: second request not served warm: %+v (hits before: %d)", i+1, st, before[i])
			}
		}
		// A warm query whose window prunes every feature runs no block; it
		// still ran on the pool, and reports the pool's size like the same
		// query with survivors does.
		for _, tc := range []struct {
			ref   string
			empty bool
		}{{"[-10,89.5,10,89.9]", true}, {"[-90,-45,90,45]", false}} {
			_, sum := fetchStream(t, w1, "/v1/query", `{"source":"data","kind":"aggregation","ref":`+tc.ref+`}`)
			if empty := sum["blocks"] == nil || sum["blocks"].(float64) == 0; empty != tc.empty || sum["scanned"].(float64) != 400 {
				t.Fatalf("ref %s: summary %v, want an empty plan: %v", tc.ref, sum, tc.empty)
			}
			if got := sum["workers"]; got != float64(poolSize) {
				t.Fatalf("ref %s: workers = %v, want the pool size %d", tc.ref, got, poolSize)
			}
		}
	})

	// One worker warm, the other read-only with no tape to read (so cold
	// for ever): alignment comes from the bytes on both, and the shards
	// still tile exactly.
	t.Run("warm and cold workers mixed", func(t *testing.T) {
		s1, w1 := newTestServerWithPath(t, copyOf(t, path), atgis.EngineConfig{Workers: 2, Sidecar: atgis.SidecarReadWrite})
		s2, w2 := newTestServerWithPath(t, copyOf(t, path), atgis.EngineConfig{Workers: 2, Sidecar: atgis.SidecarRead})
		_, coord := startCoordinator(t, w1.URL, w2.URL)
		checkClusterQuery(t, single, coord)
		checkClusterQuery(t, single, coord)
		if st := sidecarOf(t, s1); st.Hits == 0 {
			t.Fatalf("readwrite worker never ran warm: %+v", st)
		}
		if st := sidecarOf(t, s2); st.Hits != 0 || st.Misses == 0 || st.State != "none" {
			t.Fatalf("read-only worker without a tape did not stay cold: %+v", st)
		}
	})
}

// checkClusterQuery requires the coordinator's answers to an
// aggregation, a streamed containment and a limited stream to match the
// single node's.
func checkClusterQuery(t *testing.T, single, coord *httptest.Server) {
	t.Helper()
	// Aggregation: counts and the MBR merge exactly across shards; the
	// float sums regroup, so they get a relative tolerance instead.
	agg := `{"source":"data","kind":"aggregation","ref":[-180,-90,180,90],"want":["area","perimeter","mbr"]}`
	_, wantSum := fetchStream(t, single, "/v1/query", agg)
	_, gotSum := fetchStream(t, coord, "/v1/query", agg)
	for _, k := range []string{"matched", "scanned"} {
		if gotSum[k] != wantSum[k] {
			t.Fatalf("%s = %v, want %v", k, gotSum[k], wantSum[k])
		}
	}
	gm, wm := gotSum["mbr"].([]any), wantSum["mbr"].([]any)
	for i := range wm {
		if gm[i] != wm[i] {
			t.Fatalf("mbr[%d] = %v, want %v", i, gm[i], wm[i])
		}
	}
	for _, k := range []string{"sum_area", "sum_perimeter"} {
		g, w := gotSum[k].(float64), wantSum[k].(float64)
		if math.Abs(g-w) > 1e-9*math.Abs(w) {
			t.Fatalf("%s = %v, want %v", k, g, w)
		}
	}
	if gotSum["shards_failed"] != nil {
		t.Fatalf("clean pass reported shards_failed = %v", gotSum["shards_failed"])
	}

	// Containment: payload records must be byte-identical and in the
	// single-node order (shard streams concatenate).
	q := `{"source":"data","kind":"containment","ref":[-90,-45,90,45],"want":["area"]}`
	wantPay, wantSum := fetchStream(t, single, "/v1/query", q)
	gotPay, gotSum := fetchStream(t, coord, "/v1/query", q)
	if len(wantPay) == 0 {
		t.Fatal("reference query matched nothing")
	}
	samePayload(t, gotPay, wantPay)
	if gotSum["matched"] != wantSum["matched"] || gotSum["scanned"] != wantSum["scanned"] {
		t.Fatalf("summary %v, want %v", gotSum, wantSum)
	}

	// Limit applies globally at the coordinator, not per shard.
	lim := `{"source":"data","kind":"containment","ref":[-90,-45,90,45],"limit":5}`
	gotPay, _ = fetchStream(t, coord, "/v1/query", lim)
	if len(gotPay) != 5 {
		t.Fatalf("limit 5 streamed %d records", len(gotPay))
	}
}

// poisonedTape writes, next to path, a sidecar that passes every
// load-time check but lies about the source: wherever the window's
// survivors are followed by a pruned feature, that feature's offset is
// moved back into the middle of its surviving neighbour. A warm pass
// over the window then finds a live block ending mid-feature, starts a
// repair, and has to abandon the pass at the gap that follows.
func poisonedTape(t *testing.T, path string, win geom.Box) {
	t.Helper()
	eng := atgis.NewEngine(atgis.EngineConfig{Workers: 2, Sidecar: atgis.SidecarReadWrite})
	defer eng.Close()
	src, err := atgis.OpenMapped(path, atgis.AutoDetect)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	pq, err := eng.Prepare(&query.Spec{Kind: query.Aggregation}, atgis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Execute(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	ix, err := sidecar.Load(path)
	if err != nil {
		t.Fatalf("no tape to poison: %v", err)
	}
	keep := make([]bool, ix.N())
	ix.Prune(win, keep)
	poisoned := 0
	for j := 1; j < ix.N(); j++ {
		if keep[j-1] && !keep[j] {
			ix.Offs[j] -= (ix.Offs[j] - ix.Offs[j-1]) / 2
			poisoned++
		}
	}
	if poisoned < 4 {
		t.Fatalf("only %d live-to-pruned transitions to poison", poisoned)
	}
	if err := sidecar.Write(path, ix); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPoisonedTapeOnOneWorker: a warm shard pass that finds its
// tape inconsistent with the bytes rejects that worker's sidecar. A
// streaming shard has already sent records, so it ends with the in-band
// error record and the coordinator resumes the shard (on either worker —
// the poisoned one is cold from now on); an aggregate shard reruns cold
// in place and the coordinator never notices. Both answers equal the
// single node's.
func TestClusterPoisonedTapeOnOneWorker(t *testing.T) {
	path := writeSynthetic(t, 400)
	_, single := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})
	win := geom.Box{MinX: -90, MinY: -45, MaxX: 90, MaxY: 45}
	for _, tc := range []struct {
		name, body string
		retried    bool
	}{
		{"streaming", `{"source":"data","kind":"containment","ref":[-90,-45,90,45],"want":["area"]}`, true},
		{"aggregate", `{"source":"data","kind":"aggregation","ref":[-90,-45,90,45],"want":["mbr"]}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good, bad := copyOf(t, path), copyOf(t, path)
			poisonedTape(t, bad, win)
			ro := atgis.EngineConfig{Workers: 2, Sidecar: atgis.SidecarRead}
			_, w1 := newTestServerWithPath(t, good, ro)
			s2, w2 := newTestServerWithPath(t, bad, ro)
			cl, coord := startCoordinator(t, w1.URL, w2.URL)

			wantPay, wantSum := fetchStream(t, single, "/v1/query", tc.body)
			gotPay, gotSum := fetchStream(t, coord, "/v1/query", tc.body)
			samePayload(t, gotPay, wantPay)
			for _, k := range []string{"matched", "scanned", "mbr"} {
				if g, w := gotSum[k], wantSum[k]; !equalJSON(g, w) {
					t.Fatalf("%s = %v, want %v", k, g, w)
				}
			}
			if gotSum["shards_failed"] != nil {
				t.Fatalf("shards_failed = %v", gotSum["shards_failed"])
			}
			if st := sidecarOf(t, s2); st.State != "rejected" || st.Hits != 1 {
				t.Fatalf("poisoned tape was not used once and then rejected: %+v", st)
			}
			if n := cl.Snapshot().ShardRetries; (n >= 1) != tc.retried {
				t.Fatalf("ShardRetries = %d, want retried = %v", n, tc.retried)
			}
		})
	}
}

// equalJSON compares two decoded JSON values.
func equalJSON(a, b any) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

func TestClusterJoinOrderedMatchesSingleNode(t *testing.T) {
	path := writeSyntheticScaled(t, 200, 0.05)
	w1, w2 := startWorker(t, path), startWorker(t, path)
	_, single := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})
	_, coord := startCoordinator(t, w1.URL, w2.URL)

	// Joins emit pairs in cell-sequence order, so per-band streams
	// concatenate into the single-node stream exactly.
	body := `{"source":"data"}`
	wantPay, wantSum := fetchStream(t, single, "/v1/join", body)
	gotPay, gotSum := fetchStream(t, coord, "/v1/join", body)
	if len(wantPay) == 0 {
		t.Fatal("reference join found no pairs")
	}
	samePayload(t, gotPay, wantPay)
	for _, k := range []string{"streamed", "candidates", "refined", "duplicates"} {
		if gotSum[k] != wantSum[k] {
			t.Fatalf("%s = %v, want %v", k, gotSum[k], wantSum[k])
		}
	}
}

func TestClusterShardRPCFaultRetriedAndConfined(t *testing.T) {
	path := writeSynthetic(t, 300)
	w1, w2 := startWorker(t, path), startWorker(t, path)
	_, single := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})
	cl, coord := startCoordinator(t, w1.URL, w2.URL)

	// Poison shard 0's first RPC attempt: the injected panic must be
	// confined to that attempt (pipeline.Guarded in the dispatch
	// goroutine) and the shard retried — the client stream stays
	// byte-identical to a clean pass.
	t.Cleanup(faultinject.Reset)
	var fired atomic.Bool
	faultinject.Set("shard.rpc", func(label string, index int64) {
		if index == 0 && fired.CompareAndSwap(false, true) {
			panic(faultinject.SimulatedFault{Site: "shard.rpc"})
		}
	})

	q := `{"source":"data","kind":"containment","ref":[-90,-45,90,45]}`
	wantPay, _ := fetchStream(t, single, "/v1/query", q)
	gotPay, gotSum := fetchStream(t, coord, "/v1/query", q)
	samePayload(t, gotPay, wantPay)
	if !fired.Load() {
		t.Fatal("fault site never fired")
	}
	if gotSum["shards_failed"] != nil {
		t.Fatalf("retried shard reported as failed: %v", gotSum)
	}
	if n := cl.Snapshot().ShardRetries; n < 1 {
		t.Fatalf("ShardRetries = %d, want >= 1", n)
	}
}

func TestClusterShardExhaustionDegradesInBand(t *testing.T) {
	path := writeSynthetic(t, 300)
	w1, w2 := startWorker(t, path), startWorker(t, path)
	_, single := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})
	cl, coord := startCoordinator(t, w1.URL, w2.URL)

	// Shard 1 fails every attempt: the pass must finish with shard 0's
	// records (the single-node prefix), one in-band shard_fault record,
	// and a summary carrying shards_failed — never a dead connection.
	t.Cleanup(faultinject.Reset)
	faultinject.Set("shard.rpc", func(label string, index int64) {
		if index == 1 {
			panic(faultinject.SimulatedFault{Site: "shard.rpc"})
		}
	})

	q := `{"source":"data","kind":"containment","ref":[-90,-45,90,45]}`
	wantPay, _ := fetchStream(t, single, "/v1/query", q)
	lines, sum := fetchStream(t, coord, "/v1/query", q)
	var pay []string
	faults := 0
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("bad line %q: %v", ln, err)
		}
		if m["type"] == "error" {
			if m["kind"] != "shard_fault" {
				t.Fatalf("unexpected error kind %v", m["kind"])
			}
			faults++
			continue
		}
		pay = append(pay, ln)
	}
	if faults != 1 {
		t.Fatalf("%d shard_fault records, want 1", faults)
	}
	if sum["shards_failed"] != float64(1) {
		t.Fatalf("shards_failed = %v, want 1", sum["shards_failed"])
	}
	// The surviving shard's records are a prefix of the single-node
	// stream — deterministic shard execution, shard-order merge.
	if len(pay) == 0 || len(pay) >= len(wantPay) {
		t.Fatalf("degraded pass streamed %d records, reference %d", len(pay), len(wantPay))
	}
	samePayload(t, pay, wantPay[:len(pay)])
	if n := cl.Snapshot().ShardFaults; n != 1 {
		t.Fatalf("ShardFaults = %d, want 1", n)
	}
}

// truncatingProxy fronts a worker and kills the connection of the first
// shard query mid-stream, after passing the head and a couple of
// payload records through — the shape of a worker dying under load.
type truncatingProxy struct {
	target  string
	client  *http.Client
	tripped atomic.Bool
}

func (p *truncatingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// The coordinator's shard RPCs ask for identity encoding, and the
	// header is forwarded as is, so the cut below happens on plain NDJSON
	// lines.
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	cut := r.URL.Path == "/v1/query" && resp.StatusCode == http.StatusOK &&
		p.tripped.CompareAndSwap(false, true)
	if !cut {
		io.Copy(w, resp.Body)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 0; n < 3 && sc.Scan(); n++ {
		w.Write(sc.Bytes())
		w.Write([]byte{'\n'})
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

func TestClusterWorkerDeathMidStreamResumes(t *testing.T) {
	path := writeSynthetic(t, 400)
	w1, w2 := startWorker(t, path), startWorker(t, path)
	proxy := httptest.NewServer(&truncatingProxy{target: w1.URL, client: w1.Client()})
	t.Cleanup(proxy.Close)
	_, single := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})
	cl, coord := startCoordinator(t, proxy.URL, w2.URL)

	q := `{"source":"data","kind":"containment","ref":[-180,-90,180,90],"want":["area"]}`
	wantPay, wantSum := fetchStream(t, single, "/v1/query", q)
	gotPay, gotSum := fetchStream(t, coord, "/v1/query", q)
	// The shard that hit the dying worker was retried and resumed past
	// its already-forwarded records: no loss, no duplication.
	samePayload(t, gotPay, wantPay)
	if gotSum["matched"] != wantSum["matched"] || gotSum["scanned"] != wantSum["scanned"] {
		t.Fatalf("summary %v, want %v", gotSum, wantSum)
	}
	if gotSum["shards_failed"] != nil {
		t.Fatalf("resumed shard reported as failed: %v", gotSum)
	}
	if n := cl.Snapshot().ShardRetries; n < 1 {
		t.Fatalf("ShardRetries = %d, want >= 1", n)
	}
}

// encodingLog fronts a worker and records, for every shard request, the
// Accept-Encoding it arrived with and the Content-Encoding it was
// answered with.
type encodingLog struct {
	next http.Handler
	mu   sync.Mutex
	seen []string // "accept -> content"
}

func (l *encodingLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/query" {
		w = &loggedWriter{ResponseWriter: w, log: l, accept: r.Header.Get("Accept-Encoding")}
	}
	l.next.ServeHTTP(w, r)
}

// loggedWriter logs the response's encoding when its header goes out —
// before the body does, so the entry is in before the coordinator can
// have read the stream.
type loggedWriter struct {
	http.ResponseWriter
	log    *encodingLog
	accept string
}

func (w *loggedWriter) WriteHeader(code int) {
	w.log.mu.Lock()
	w.log.seen = append(w.log.seen, w.accept+" -> "+w.Header().Get("Content-Encoding"))
	w.log.mu.Unlock()
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggedWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestShardRPCsAreIdentityEncoded: gzip is negotiated on the client hop
// only. A coordinator built with a default http.Client — whose transport
// would offer gzip by itself — asks every worker for identity and gets
// plain NDJSON back, while a client that asks the coordinator for gzip
// still gets a gzip body that inflates to the plain one.
func TestShardRPCsAreIdentityEncoded(t *testing.T) {
	path := writeSynthetic(t, 400)
	var logs []*encodingLog
	var urls []string
	for i := 0; i < 2; i++ {
		srv, _ := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})
		l := &encodingLog{next: srv.Handler()}
		ts := httptest.NewServer(l)
		t.Cleanup(ts.Close)
		logs, urls = append(logs, l), append(urls, ts.URL)
	}
	_, coord := startCoordinator(t, urls...)

	q := `{"source":"data","kind":"containment","ref":[-90,-45,90,45],"want":["area"]}`
	req, err := http.NewRequest(http.MethodPost, coord.URL+"/v1/query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := coord.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("plain request: HTTP %d, Content-Encoding %q, %v", resp.StatusCode, resp.Header.Get("Content-Encoding"), err)
	}
	shards := 0
	for i, l := range logs {
		l.mu.Lock()
		for _, s := range l.seen {
			if s != "identity -> " {
				t.Errorf("worker %d: shard RPC %q, want identity and no Content-Encoding", i+1, s)
			}
		}
		shards += len(l.seen)
		l.mu.Unlock()
	}
	if shards != 2 {
		t.Fatalf("%d shard RPCs, want 2", shards)
	}

	resp = postJSONGzip(t, coord.Client(), coord.URL+"/v1/query", q)
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); resp.StatusCode != http.StatusOK || enc != "gzip" {
		t.Fatalf("gzip request: HTTP %d, Content-Encoding %q", resp.StatusCode, enc)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip body: %v", err)
	}
	// The summaries differ only in their timings.
	untimed := func(b []byte) string {
		i := bytes.Index(b, []byte(`,"wall_ms"`))
		if i < 0 {
			t.Fatalf("no summary timing in %s", b)
		}
		return string(b[:i])
	}
	if untimed(inflated) != untimed(plain) || !bytes.Contains(plain, []byte(`{"type":"feature",`)) {
		t.Fatalf("inflated gzip body differs from the plain body:\n%s\nvs\n%s", inflated, plain)
	}
}

func TestClusterHealthzDegradedAfterWorkerLoss(t *testing.T) {
	path := writeSynthetic(t, 100)
	w1, w2 := startWorker(t, path), startWorker(t, path)
	_, coord := startCoordinator(t, w1.URL, w2.URL)

	status := func() string {
		resp, err := coord.Client().Get(coord.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		s, _ := m["status"].(string)
		return s
	}
	if s := status(); s != "ok" {
		t.Fatalf("initial status %q, want ok", s)
	}

	w2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for status() != "degraded" {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never reported degraded after worker loss")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Queries still run: the health-ranked assignment routes every shard
	// to the survivor.
	pay, sum := fetchStream(t, coord, "/v1/query",
		`{"source":"data","kind":"containment","ref":[-180,-90,180,90]}`)
	if len(pay) == 0 {
		t.Fatal("no records through degraded cluster")
	}
	if sum["shards_failed"] != nil {
		t.Fatalf("degraded-but-serving pass reported shards_failed = %v", sum["shards_failed"])
	}
}

func TestClusterStatsSourcesAndRegister(t *testing.T) {
	path := writeSynthetic(t, 100)
	w1, w2 := startWorker(t, path), startWorker(t, path)
	_, coord := startCoordinator(t, w1.URL, w2.URL)

	// /v1/stats aggregates: coordinator counters plus each worker's own
	// stats document.
	resp, err := coord.Client().Get(coord.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Uptime  float64 `json:"uptime_seconds"`
		Cluster struct {
			Workers     []map[string]any           `json:"workers"`
			Counters    map[string]any             `json:"counters"`
			WorkerStats map[string]json.RawMessage `json:"worker_stats"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Cluster.Workers) != 2 {
		t.Fatalf("%d workers in stats, want 2", len(stats.Cluster.Workers))
	}
	for _, u := range []string{w1.URL, w2.URL} {
		if _, ok := stats.Cluster.WorkerStats[u]; !ok {
			t.Fatalf("worker_stats missing %s", u)
		}
	}
	if stats.Cluster.Counters == nil {
		t.Fatal("stats missing cluster counters")
	}

	// /v1/sources is the merged view: one entry served by both workers.
	resp, err = coord.Client().Get(coord.URL + "/v1/sources")
	if err != nil {
		t.Fatal(err)
	}
	var srcs struct {
		Sources []clusterSourceInfo `json:"sources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&srcs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(srcs.Sources) != 1 || srcs.Sources[0].Name != "data" {
		t.Fatalf("sources = %+v, want one entry named data", srcs.Sources)
	}
	if len(srcs.Sources[0].Workers) != 2 || srcs.Sources[0].Conflict {
		t.Fatalf("source view = %+v, want 2 workers and no conflict", srcs.Sources[0])
	}

	// The coordinator holds no data: registration belongs to workers.
	rr := postJSON(t, coord.Client(), coord.URL+"/v1/sources", `{"name":"x","path":"/tmp/x"}`, "")
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusForbidden {
		t.Fatalf("register on coordinator: HTTP %d, want 403", rr.StatusCode)
	}
}

// exchange posts body and returns what a client can tell apart: the
// status, the error kind of a refused request, and a 200's payload lines
// and summary.
func exchange(t *testing.T, ts *httptest.Server, path, body string) (status int, kind string, payload []string, sum map[string]any) {
	t.Helper()
	resp := postJSON(t, ts.Client(), ts.URL+path, body, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s %s: HTTP %d with an undecodable body: %v", path, body, resp.StatusCode, err)
		}
		return resp.StatusCode, eb.Kind, nil, nil
	}
	payload, sum = splitStream(t, rawLines(t, resp.Body))
	return resp.StatusCode, "", payload, sum
}

// TestWorkerAndCoordinatorOfOneAgree: a worker and a coordinator fronting
// that one worker are the same request path, so on the request surface a
// client cannot tell them apart — same status, same error kind, the same
// records byte for byte and the same summary counts. The two documented
// exceptions are the coordinator-internal fields.
func TestWorkerAndCoordinatorOfOneAgree(t *testing.T) {
	worker := startWorker(t, writeSyntheticScaled(t, 200, 0.05))
	_, coord := startCoordinator(t, worker.URL)

	const q, j = "/v1/query", "/v1/join"
	for _, tc := range []struct {
		name, path, body string
		status           int    // expected of both
		kind             string // expected of both when refused
		records          int    // exact payload count, -1 = at least one
	}{
		{"containment", q, `{"source":"data","kind":"containment","ref":[-180,-90,180,90],"want":["area"]}`, 200, "", -1},
		{"aggregation", q, `{"source":"data","kind":"aggregation","ref":[-180,-90,180,90],"want":["area","perimeter","mbr"]}`, 200, "", 0},
		{"limit 1", q, `{"source":"data","kind":"containment","ref":[-180,-90,180,90],"limit":1}`, 200, "", 1},
		{"limit above matches", q, `{"source":"data","kind":"containment","ref":[-180,-90,180,90],"limit":100000}`, 200, "", 200},
		{"join parity", j, `{"source":"data","mask":"parity"}`, 200, "", -1},
		{"join both", j, `{"source":"data","mask":"both","cell":15}`, 200, "", -1},
		{"join limit 1", j, `{"source":"data","limit":1}`, 200, "", 1},
		{"bad kind", q, `{"source":"data","kind":"wat","ref":[0,0,1,1]}`, 400, "bad_request", 0},
		{"ref of length 3", q, `{"source":"data","kind":"aggregation","ref":[0,0,1]}`, 400, "bad_request", 0},
		{"negative limit", q, `{"source":"data","kind":"containment","ref":[0,0,1,1],"limit":-1}`, 400, "bad_request", 0},
		{"negative timeout_ms", q, `{"source":"data","kind":"aggregation","ref":[0,0,1,1],"timeout_ms":-1}`, 400, "bad_request", 0},
		{"join negative limit", j, `{"source":"data","limit":-1}`, 400, "bad_request", 0},
		{"join negative timeout_ms", j, `{"source":"data","timeout_ms":-1}`, 400, "bad_request", 0},
		{"join negative order_window", j, `{"source":"data","order_window":-1}`, 400, "bad_request", 0},
		{"join cell 0.01", j, `{"source":"data","cell":0.01}`, 400, "bad_request", 0},
		{"join bad mask", j, `{"source":"data","mask":"odd"}`, 400, "bad_request", 0},
		// An empty band is no scatter unit: a worker must not read
		// [0,0) as the whole grid.
		{"join empty band at 0", j, `{"source":"data","cell_band":[0,0]}`, 400, "bad_request", 0},
		{"join empty band at 3", j, `{"source":"data","cell_band":[3,3]}`, 400, "bad_request", 0},
		{"removed field mode", q, `{"source":"data","kind":"aggregation","ref":[0,0,1,1],"mode":"fat"}`, 400, "bad_request", 0},
		{"removed field filter", q, `{"source":"data","kind":"aggregation","ref":[0,0,1,1],"filter":"buffered"}`, 400, "bad_request", 0},
		{"unknown source", q, `{"source":"nope","kind":"aggregation","ref":[0,0,1,1]}`, 404, "not_found", 0},
		{"join unknown source", j, `{"source":"nope"}`, 404, "not_found", 0},
		// Validation comes before any source lookup, in both modes.
		{"bad kind and unknown source", q, `{"source":"nope","kind":"wat","ref":[0,0,1,1]}`, 400, "bad_request", 0},
		{"join bad cell and unknown source", j, `{"source":"nope","cell":0.01}`, 400, "bad_request", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, wk, wpay, wsum := exchange(t, worker, tc.path, tc.body)
			cs, ck, cpay, csum := exchange(t, coord, tc.path, tc.body)
			if ws != tc.status || cs != tc.status || wk != tc.kind || ck != tc.kind {
				t.Fatalf("worker answered %d %q, coordinator %d %q; want %d %q of both", ws, wk, cs, ck, tc.status, tc.kind)
			}
			if tc.status != 200 {
				return
			}
			if n := len(wpay); n != tc.records && (tc.records >= 0 || n == 0) {
				t.Fatalf("worker streamed %d records, want %d (-1 = some)", n, tc.records)
			}
			samePayload(t, cpay, wpay)
			keys := []string{"matched", "scanned", "sum_area", "sum_perimeter", "mbr"}
			if tc.path == j {
				keys = []string{"streamed", "candidates", "refined", "duplicates"}
			}
			for _, k := range keys {
				if !equalJSON(csum[k], wsum[k]) {
					t.Fatalf("summary %s: coordinator %v, worker %v", k, csum[k], wsum[k])
				}
			}
			if csum["shards_failed"] != nil {
				t.Fatalf("clean pass reported shards_failed = %v", csum["shards_failed"])
			}
		})
	}

	// The scatter units are coordinator-internal: a coordinator refuses a
	// request that carries one, the worker it would send it to serves it.
	for _, tc := range []struct{ name, path, body, first string }{
		{"shard", q, `{"source":"data","kind":"containment","ref":[-180,-90,180,90],"shard":{"start":0,"end":4096}}`, `{"type":"shard","start":0,"end":4096,`},
		{"cell_band", j, `{"source":"data","cell_band":[0,32400]}`, `{"type":"pair",`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if cs, ck, _, _ := exchange(t, coord, tc.path, tc.body); cs != 400 || ck != "bad_request" {
				t.Fatalf("coordinator answered %d %q, want 400 bad_request", cs, ck)
			}
			ws, _, wpay, _ := exchange(t, worker, tc.path, tc.body)
			if ws != 200 || len(wpay) == 0 || !strings.HasPrefix(wpay[0], tc.first) {
				t.Fatalf("worker answered %d with records %q, want 200 and a stream opening with %s", ws, wpay, tc.first)
			}
		})
	}
}
