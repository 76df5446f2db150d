package server

// Server-level fault tests: request deadlines (504 before the stream
// commits, in-band kind "timeout" after), source-fault health marking
// in /healthz and /v1/stats, and recovery once a full pass succeeds.
// Faults are injected deterministically via internal/faultinject; the
// registry is process-global, so none of these tests run in parallel.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"atgis"
	"atgis/internal/faultinject"
)

// newFaultServer builds a server with request-timeout config over two
// registered sources, "data" and "good".
func newFaultServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	eng := atgis.NewEngine(atgis.EngineConfig{Workers: 2, MaxInFlight: 4, TenantQueue: 8})
	cfg.Engine = eng
	if cfg.Options.BlockSize == 0 {
		cfg.Options.BlockSize = 8192
	}
	srv := New(cfg)
	if err := srv.RegisterFile("data", writeSynthetic(t, 2000), ""); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterFile("good", writeSynthetic(t, 300), ""); err != nil {
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

// getJSON fetches url and decodes the JSON body.
func getJSON(t *testing.T, client *http.Client, url string) map[string]any {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRequestTimeoutPreStream runs an aggregation (nothing streams
// until the pass completes) whose blocks are artificially slow under a
// small timeout_ms and expects a 504 with kind "timeout", within twice
// the budget.
func TestRequestTimeoutPreStream(t *testing.T) {
	_, ts := newFaultServer(t, Config{})
	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		time.Sleep(30 * time.Millisecond)
	})

	const budgetMS = 250
	start := time.Now()
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[-180,-90,180,90],"timeout_ms":250}`, "slow")
	defer resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s, want 504", resp.StatusCode, b)
	}
	var body struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "timeout" {
		t.Fatalf("kind = %q, want timeout", body.Kind)
	}
	if elapsed > 2*budgetMS*time.Millisecond {
		t.Fatalf("request ran %v on a %dms budget", elapsed, budgetMS)
	}
}

// TestRequestTimeoutMidStream lets a containment stream commit its 200
// and deliver early matches, then stalls the remaining blocks past the
// deadline: the stream must terminate with an in-band error record of
// kind "timeout".
func TestRequestTimeoutMidStream(t *testing.T) {
	_, ts := newFaultServer(t, Config{})
	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		if index >= 4 {
			time.Sleep(100 * time.Millisecond)
		}
	})

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"containment","ref":[-180,-90,180,90],"timeout_ms":250}`, "slow")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s, want 200 (stream had committed)", resp.StatusCode, b)
	}
	recs := ndjsonLines(t, resp.Body)
	if len(recs) < 2 {
		t.Fatalf("stream delivered %d records, want features + terminal error", len(recs))
	}
	last := recs[len(recs)-1]
	if last["type"] != "error" || last["kind"] != "timeout" {
		t.Fatalf("terminal record = %v, want in-band timeout error", last)
	}
	for _, r := range recs[:len(recs)-1] {
		if r["type"] != "feature" {
			t.Fatalf("unexpected record before terminal error: %v", r)
		}
	}
}

// TestDefaultAndMaxTimeout checks the server-side budget: with no
// timeout_ms the DefaultTimeout applies, and a huge client timeout_ms
// is clamped to MaxTimeout.
func TestDefaultAndMaxTimeout(t *testing.T) {
	_, ts := newFaultServer(t, Config{
		DefaultTimeout: 200 * time.Millisecond,
		MaxTimeout:     250 * time.Millisecond,
	})
	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		time.Sleep(30 * time.Millisecond)
	})

	// No timeout_ms: default applies.
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[-180,-90,180,90]}`, "slow")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("default-timeout status = %d, want 504", resp.StatusCode)
	}

	// timeout_ms far above the cap: clamped, still times out promptly.
	start := time.Now()
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[-180,-90,180,90],"timeout_ms":600000}`, "slow")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("clamped-timeout status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("clamp did not apply: request ran %v", elapsed)
	}

	// Negative timeout_ms is a validation error.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[-180,-90,180,90],"timeout_ms":-1}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms status = %d, want 400", resp.StatusCode)
	}
}

// TestSourceFaultMarksHealth drives a simulated mmap fault through one
// source's pass and checks the full health lifecycle: the failing query
// reports kind "source_fault", /healthz degrades and /v1/stats flags
// the source unhealthy while the other source keeps serving, and a
// later fully successful pass restores health.
func TestSourceFaultMarksHealth(t *testing.T) {
	_, ts := newFaultServer(t, Config{})
	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		if label == "faulty" {
			panic(faultinject.SimulatedFault{Site: "pipeline.block"})
		}
	})

	// The poisoned tenant's aggregation fails pre-stream with the typed
	// kind.
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[-180,-90,180,90]}`, "faulty")
	var body struct {
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || body.Kind != "source_fault" {
		t.Fatalf("faulted query: status %d kind %q, want 500 source_fault", resp.StatusCode, body.Kind)
	}

	// Health degrades for "data" only; liveness stays 200.
	hz := getJSON(t, ts.Client(), ts.URL+"/healthz")
	if hz["status"] != "degraded" {
		t.Fatalf("healthz status = %v, want degraded", hz["status"])
	}
	degraded, _ := hz["degraded_sources"].(map[string]any)
	if _, ok := degraded["data"]; !ok || len(degraded) != 1 {
		t.Fatalf("degraded_sources = %v, want exactly {data}", degraded)
	}
	stats := getJSON(t, ts.Client(), ts.URL+"/v1/stats")
	sources := stats["sources"].(map[string]any)
	if sources["data"].(map[string]any)["healthy"] != false {
		t.Fatalf("stats: data still healthy: %v", sources["data"])
	}
	if sources["good"].(map[string]any)["healthy"] != true {
		t.Fatalf("stats: good marked unhealthy: %v", sources["good"])
	}

	// The other source keeps serving for a healthy tenant.
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"good","kind":"aggregation","ref":[-180,-90,180,90]}`, "ok")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy source status = %d, want 200", resp.StatusCode)
	}

	// Disarm and complete a full pass over "data": health restores.
	faultinject.Reset()
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/query",
		`{"source":"data","kind":"aggregation","ref":[-180,-90,180,90]}`, "faulty")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery pass status = %d, want 200", resp.StatusCode)
	}
	hz = getJSON(t, ts.Client(), ts.URL+"/healthz")
	if hz["status"] != "ok" {
		t.Fatalf("healthz after recovery = %v, want ok", hz["status"])
	}
}

// TestJoinTimeout checks timeout_ms on the join endpoint: a stalled
// sweep ends the stream with an in-band timeout record (or a 504 when
// nothing streamed yet).
func TestJoinTimeout(t *testing.T) {
	_, ts := newFaultServer(t, Config{})
	t.Cleanup(faultinject.Reset)
	faultinject.Set("pipeline.block", func(label string, index int64) {
		time.Sleep(30 * time.Millisecond)
	})

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/join",
		`{"source":"data","cell":2,"timeout_ms":200}`, "slow")
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusGatewayTimeout:
		// Partition phase never finished: acceptable, kind checked below.
		var body struct {
			Kind string `json:"kind"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Kind != "timeout" {
			t.Fatalf("kind = %q, want timeout", body.Kind)
		}
	case http.StatusOK:
		recs := ndjsonLines(t, resp.Body)
		last := recs[len(recs)-1]
		if last["type"] != "error" || last["kind"] != "timeout" {
			t.Fatalf("terminal record = %v, want in-band timeout", last)
		}
	default:
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
}

// TestEncodeFailureEndsStreamInBand: a record that cannot be marshalled
// — here a polygon so large its spherical area overflows to +Inf — ends
// the stream with the documented in-band error record (type, kind and
// all) and nothing after it: no later feature, no summary.
func TestEncodeFailureEndsStreamInBand(t *testing.T) {
	square := func(id int, side string) string {
		return `{"type":"Feature","id":` + strconv.Itoa(id) + `,"properties":{},"geometry":{"type":"Polygon","coordinates":` +
			`[[[0,0],[` + side + `,0],[` + side + `,` + side + `],[0,` + side + `],[0,0]]]}}`
	}
	path := filepath.Join(t.TempDir(), "huge.geojson")
	doc := `{"type":"FeatureCollection","features":[` + "\n" +
		square(1, "1") + ",\n" + square(2, "1e300") + ",\n" + square(3, "2") + "\n]}\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServerWithPath(t, path, atgis.EngineConfig{Workers: 2})

	for _, tc := range []struct {
		name, body string
		features   int
	}{
		{"feature record", `{"source":"data","kind":"containment","ref":[-5,-5,5,5],"want":["area"]}`, 1},
		{"summary record", `{"source":"data","kind":"aggregation","ref":[-5,-5,5,5],"want":["area"]}`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.Client(), ts.URL+"/v1/query", tc.body, "")
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d: %s", resp.StatusCode, b)
			}
			recs := ndjsonLines(t, resp.Body)
			if len(recs) != tc.features+1 {
				t.Fatalf("stream = %v, want %d feature(s) then the error record", recs, tc.features)
			}
			for _, r := range recs[:tc.features] {
				if r["type"] != "feature" {
					t.Fatalf("record before the error = %v", r)
				}
			}
			last := recs[len(recs)-1]
			msg, _ := last["error"].(string)
			if last["type"] != "error" || last["kind"] != "internal" || !strings.HasPrefix(msg, "encode record: ") {
				t.Fatalf("terminal record = %v, want in-band internal encode error", last)
			}
		})
	}
}
