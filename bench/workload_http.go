package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"atgis"
	"atgis/internal/cluster"
	"atgis/internal/geom"
	"atgis/internal/server"
)

// The two served workloads run atgis-serve's own server and cluster
// packages in this process, behind real loopback listeners, and drive
// them from one generator goroutine per keep-alive connection.

// atgis-serve's flag defaults, pinned here so that a later removal of a
// knob does not have to edit the benchmark.
const (
	serveBlockSize   = 1 << 20
	serveMaxInFlight = 4
	serveTenantQueue = 16
)

// node is an http.Server on a loopback listener.
type node struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func startNode(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), done: make(chan struct{}),
		hs: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) // returns once stop closes the server
	}()
	return n, nil
}

// stop drains the node and returns once its accept loop has ended.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n.hs.Shutdown(ctx) != nil {
		n.hs.Close()
	}
	<-n.done
}

// served is one atgis-serve process: engine, server, listener.
type served struct {
	eng  *atgis.Engine
	srv  *server.Server
	node *node
}

// startServed starts a single-node server over the named GeoJSON files.
func startServed(cfg atgis.EngineConfig, files map[string]string) (*served, error) {
	s := &served{eng: atgis.NewEngine(cfg)}
	s.srv = server.New(server.Config{Engine: s.eng, Options: atgis.Options{BlockSize: serveBlockSize}})
	for name, path := range files {
		if err := s.srv.RegisterFile(name, path, "geojson"); err != nil {
			s.stop()
			return nil, err
		}
	}
	var err error
	if s.node, err = startNode(s.srv.Handler()); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) stop() {
	if s.node != nil {
		s.node.stop()
	}
	s.srv.Close()
	s.eng.Close()
}

// client is one keep-alive connection of one tenant.
type client struct {
	base   string
	tenant string
	tp     *http.Transport
	hc     *http.Client
}

func newClient(base, tenant string) *client {
	// DisableCompression: plain requests must come back plain; the gzip
	// class asks for gzip itself and inflates the body itself.
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tenant: tenant, tp: tp, hc: &http.Client{Transport: tp}}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

// reply is what a request's NDJSON stream held.
type reply struct {
	features int
	ids      uint64 // FNV-1a of the feature ids in stream order
	pairs    pairDigest
	summary  []byte
}

type summaryRecord struct {
	Matched      int64 `json:"matched"`
	Streamed     int   `json:"streamed"`
	ShardsFailed int   `json:"shards_failed"`
}

var (
	featurePrefix = []byte(`{"type":"feature","id":`)
	pairPrefix    = []byte(`{"type":"pair","a_id":`)
	pairMiddle    = []byte(`,"b_id":`)
	summaryPrefix = []byte(`{"type":"summary"`)
	shardPrefix   = []byte(`{"type":"shard"`) // a worker's handshake, seen only when a shard is asked directly
)

// leadingInt parses the integer b starts with and returns the rest.
func leadingInt(b []byte) (int64, []byte, error) {
	i := 0
	for i < len(b) && (b[i] == '-' || b[i] >= '0' && b[i] <= '9') {
		i++
	}
	v, err := strconv.ParseInt(string(b[:i]), 10, 64)
	return v, b[i:], err
}

// post sends one request and reads its body to the last byte. Anything
// but a 200 whose stream ends in a summary is an error: a refusal
// (429), an in-band error or shard_fault record, a missing summary.
func (c *client) post(path string, body []byte, gz bool, tr *tracer, sp int) (*reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tenant != "" {
		req.Header.Set("X-Atgis-Tenant", c.tenant)
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	end := tr.begin("http.headers", sp)
	resp, err := c.hc.Do(req)
	end()
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	defer tr.begin("http.body", sp)()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var stream io.Reader = resp.Body
	if gz {
		if resp.Header.Get("Content-Encoding") != "gzip" {
			return nil, errors.New("asked for gzip, got an identity body")
		}
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		stream = zr
	}
	rp := &reply{ids: fnvOffset}
	br := bufio.NewReaderSize(stream, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if perr := rp.record(line); perr != nil {
				return nil, perr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if rp.summary == nil {
		return nil, errors.New("stream ended without a summary record")
	}
	return rp, nil
}

func (rp *reply) record(line []byte) error {
	switch {
	case bytes.HasPrefix(line, featurePrefix):
		id, _, err := leadingInt(line[len(featurePrefix):])
		if err != nil {
			return fmt.Errorf("feature record: %w", err)
		}
		rp.features++
		rp.ids = fnvID(rp.ids, id)
	case bytes.HasPrefix(line, pairPrefix):
		a, rest, err := leadingInt(line[len(pairPrefix):])
		if err != nil || !bytes.HasPrefix(rest, pairMiddle) {
			return fmt.Errorf("pair record %q", line)
		}
		b, _, err := leadingInt(rest[len(pairMiddle):])
		if err != nil {
			return fmt.Errorf("pair record: %w", err)
		}
		rp.pairs.add(a, b)
	case bytes.HasPrefix(line, summaryPrefix):
		rp.summary = append([]byte(nil), line...)
	case bytes.HasPrefix(line, shardPrefix):
	default:
		return fmt.Errorf("unexpected record %q", bytes.TrimSpace(line))
	}
	return nil
}

// parseSummary decodes the summary and refuses a degraded scatter.
func (rp *reply) parseSummary() (summaryRecord, error) {
	var s summaryRecord
	if err := json.Unmarshal(rp.summary, &s); err != nil {
		return s, fmt.Errorf("summary record: %w", err)
	}
	if s.ShardsFailed > 0 {
		return s, fmt.Errorf("%d shards failed", s.ShardsFailed)
	}
	return s, nil
}

func queryBody(source, kind string, box geom.Box, want ...string) []byte {
	b, err := json.Marshal(struct {
		Source string     `json:"source"`
		Kind   string     `json:"kind"`
		Ref    [4]float64 `json:"ref"`
		Want   []string   `json:"want,omitempty"`
	}{source, kind, [4]float64{box.MinX, box.MinY, box.MaxX, box.MaxY}, want})
	if err != nil {
		panic(err) // a struct of strings and finite floats always marshals
	}
	return b
}

// containment sends a containment query and checks the streamed ids and
// the summary against the oracle.
func (c *client) containment(source string, want windowWant, gz bool, tr *tracer, sp int) error {
	rp, err := c.post("/v1/query", queryBody(source, "containment", want.box), gz, tr, sp)
	if err != nil {
		return err
	}
	sum, err := rp.parseSummary()
	if err != nil {
		return err
	}
	if sum.Matched != want.matched || int64(rp.features) != want.matched || rp.ids != want.ids {
		return fmt.Errorf("streamed %d features (summary %d, digest %x), want %d (digest %x)",
			rp.features, sum.Matched, rp.ids, want.matched, want.ids)
	}
	return nil
}

func (c *client) aggregation(source string, want windowWant, tr *tracer, sp int) error {
	rp, err := c.post("/v1/query", queryBody(source, "aggregation", want.box, "area", "perimeter"), false, tr, sp)
	if err != nil {
		return err
	}
	sum, err := rp.parseSummary()
	if err != nil {
		return err
	}
	if sum.Matched != want.matched {
		return fmt.Errorf("aggregated %d features, want %d", sum.Matched, want.matched)
	}
	return nil
}

func (c *client) join(source string, want *joinWant, tr *tracer, sp int) error {
	rp, err := c.post("/v1/join", []byte(`{"source":"`+source+`","cell":1,"mask":"parity"}`), false, tr, sp)
	if err != nil {
		return err
	}
	sum, err := rp.parseSummary()
	if err != nil {
		return err
	}
	if sum.Streamed != rp.pairs.n {
		return fmt.Errorf("summary says %d pairs streamed, body held %d", sum.Streamed, rp.pairs.n)
	}
	return want.check(rp.pairs)
}

// servedInputs is what both served workloads generate: the scan file
// with its windows and the small join file.
type servedInputs struct {
	scan, sjoin *dataset
	windows     []windowWant
	wide        windowWant
	join        *joinWant
}

func (in *servedInputs) prepare(e *env) (err error) {
	if in.scan, err = e.dataset("scan", scanFeatures, atgis.GeoJSON); err != nil {
		return err
	}
	if in.sjoin, err = e.dataset("sjoin", sjoinFeatures, atgis.GeoJSON); err != nil {
		return err
	}
	in.windows = in.scan.wantAll(randomBoxes(e.cfg.seed, windowPool, fracSelective))
	in.wide = in.scan.want(centredBox(fracWide))
	in.join, err = e.joinOracle(in.sjoin)
	return err
}

// files names the sources a server registers. It deletes their
// sidecars first, so that every set-up pays for building them.
func (in *servedInputs) files() (map[string]string, error) {
	files := map[string]string{"scan": in.scan.path[atgis.GeoJSON], "join": in.sjoin.path[atgis.GeoJSON]}
	for _, path := range files {
		if err := removeSidecar(path); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// --- serve_mixed ---

type serveMixed struct{ servedInputs }

type serveMixedInst struct {
	w           *serveMixed
	s           *served
	interactive *client
	batch       *client
	next        int // next window of the pool
	turn        int // batch tenant's position in its cycle, kept across windows

	shareErr   []float64 // |interactive worker share − 3/4| while both tenants run
	queuedPeak int
}

func (w *serveMixed) setup(e *env) (instance, error) {
	files, err := w.files()
	if err != nil {
		return nil, err
	}
	s, err := startServed(atgis.EngineConfig{
		Workers: e.nproc, BlockSize: serveBlockSize,
		MaxInFlight: serveMaxInFlight, TenantQueue: serveTenantQueue,
		TenantWeights: map[string]int{"interactive": 3},
		Sidecar:       atgis.SidecarReadWrite,
	}, files)
	if err != nil {
		return nil, err
	}
	in := &serveMixedInst{w: w, s: s,
		interactive: newClient(s.node.url, "interactive"), batch: newClient(s.node.url, "batch")}
	// One warm-up per class; the first pass over each file also records
	// its sidecar.
	for _, warm := range []func() error{
		func() error { return in.batch.containment("scan", w.wide, false, nil, rootSpan) },
		func() error { return in.batch.join("join", w.join, nil, rootSpan) },
		func() error { return in.batch.containment("scan", w.wide, true, nil, rootSpan) },
		func() error { return in.interactive.containment("scan", w.windows[0], false, nil, rootSpan) },
	} {
		if err := warm(); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// run drives the two tenants concurrently: batch cycles wide scan, join,
// gzip wide scan and ends on a whole cycle; interactive sends selective
// windows back to back for as long as batch runs, so every request of
// either tenant is timed against the other. A traced window also
// samples the scheduler.
func (in *serveMixedInst) run(until time.Time, rec *recorder) {
	var wg sync.WaitGroup
	wg.Add(2)
	batchDone := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-batchDone:
				return
			default:
			}
			want := in.w.windows[in.next%len(in.w.windows)]
			in.next++
			rec.op("op1", func(sp int) error { return in.interactive.containment("scan", want, false, rec.tr, sp) })
		}
	}()
	go func() {
		defer wg.Done()
		defer close(batchDone)
		for ; time.Now().Before(until) || in.turn%3 != 0; in.turn++ {
			switch in.turn % 3 {
			case 0:
				rec.op("op2", func(sp int) error { return in.batch.containment("scan", in.w.wide, false, rec.tr, sp) })
			case 1:
				rec.op("op3", func(sp int) error { return in.batch.join("join", in.w.join, rec.tr, sp) })
			case 2:
				rec.op("op4", func(sp int) error { return in.batch.containment("scan", in.w.wide, true, rec.tr, sp) })
			}
		}
	}()
	for sampling := rec.tr != nil; sampling; {
		select {
		case <-batchDone:
			sampling = false
		case <-time.After(20 * time.Millisecond):
			in.sample()
		}
	}
	wg.Wait()
}

// sample reads the scheduler's windowed worker shares and the admission
// queue while the window runs.
func (in *serveMixedInst) sample() {
	st := in.s.eng.Stats()
	if st.Admission != nil && st.Admission.QueuedTotal > in.queuedPeak {
		in.queuedPeak = st.Admission.QueuedTotal
	}
	if st.Scheduler == nil {
		return
	}
	it, iok := st.Scheduler.Tenants["interactive"]
	_, bok := st.Scheduler.Tenants["batch"]
	if iok && bok {
		d := it.WorkerShare - 0.75
		if d < 0 {
			d = -d
		}
		in.shareErr = append(in.shareErr, d)
	}
}

func (in *serveMixedInst) layers(m map[string]float64) {
	engineLayers(m, in.s.eng)
	m["pipeline.sched_share_err"] = median(in.shareErr)
	m["admission.queued_peak"] = float64(in.queuedPeak)
	m["sidecar.hit_ratio"] = servedSidecarRatio(in.s.node.url)
}

func (in *serveMixedInst) close() {
	in.interactive.close()
	in.batch.close()
	in.s.stop()
}

// servedSidecarRatio is the share of the servers' passes that the
// sidecar served warm: hits ÷ passes over their sources, read from
// /v1/stats, the only place a server shows them. Passes that bypass
// the sidecar (shard passes today) count against it, which hits ÷
// (hits + misses) would hide.
func servedSidecarRatio(urls ...string) float64 {
	var hits, passes int64
	for _, u := range urls {
		resp, err := http.Get(u + "/v1/stats")
		if err != nil {
			continue
		}
		var st struct {
			Sources map[string]struct {
				Passes  int64               `json:"passes"`
				Sidecar *atgis.SidecarStats `json:"sidecar"`
			} `json:"sources"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, s := range st.Sources {
			passes += s.Passes
			if s.Sidecar != nil {
				hits += s.Sidecar.Hits
			}
		}
	}
	if passes == 0 {
		return 0
	}
	return float64(hits) / float64(passes)
}

// --- cluster_scatter ---

type clusterScatter struct {
	servedInputs
	wideAgg windowWant
}

func (w *clusterScatter) prepare(e *env) error {
	if err := w.servedInputs.prepare(e); err != nil {
		return err
	}
	w.wideAgg = w.wide // same window, aggregated instead of streamed
	return nil
}

// clusterNodes is a coordinator over two single-worker nodes.
type clusterNodes struct {
	workers []*served
	rpc     *http.Transport // the coordinator's connections to the workers
	coord   *cluster.Coordinator
	front   *server.Server
	node    *node
}

func startCluster(files map[string]string) (*clusterNodes, error) {
	c := &clusterNodes{rpc: &http.Transport{MaxIdleConnsPerHost: 8}}
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := startServed(atgis.EngineConfig{
			Workers: 1, BlockSize: serveBlockSize,
			MaxInFlight: serveMaxInFlight, TenantQueue: serveTenantQueue,
			Sidecar: atgis.SidecarReadWrite,
		}, files)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, s)
		urls = append(urls, s.node.url)
	}
	var err error
	if c.coord, err = cluster.New(cluster.Config{Workers: urls, Client: &http.Client{Transport: c.rpc}}); err != nil {
		c.stop()
		return nil, err
	}
	c.coord.Start()
	c.front = server.New(server.Config{Cluster: c.coord})
	if c.node, err = startNode(c.front.Handler()); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *clusterNodes) stop() {
	if c.node != nil {
		c.node.stop()
	}
	if c.front != nil {
		c.front.Close()
	}
	if c.coord != nil {
		c.coord.Stop()
	}
	// A worker's Shutdown waits five seconds for a connection that was
	// dialled but never used; closing the coordinator's side first ends
	// those at once.
	c.rpc.CloseIdleConnections()
	for _, s := range c.workers {
		s.stop()
	}
}

func (c *clusterNodes) workerURLs() []string {
	urls := make([]string, len(c.workers))
	for i, s := range c.workers {
		urls[i] = s.node.url
	}
	return urls
}

type clusterScatterInst struct {
	w    *clusterScatter
	c    *clusterNodes
	cl   *client
	next int // next window of the pool
	turn int // position in the cycle, kept across windows
	base cluster.Counters
}

func (w *clusterScatter) setup(e *env) (instance, error) {
	files, err := w.files()
	if err != nil {
		return nil, err
	}
	c, err := startCluster(files)
	if err != nil {
		return nil, err
	}
	in := &clusterScatterInst{w: w, c: c, cl: newClient(c.node.url, "")}
	for _, op := range []string{"op1", "op2", "op3", "op4"} { // one warm-up per class
		if err := in.request(op, nil, rootSpan); err != nil {
			in.close()
			return nil, err
		}
	}
	in.base = c.coord.Snapshot()
	return in, nil
}

// clusterCycle is the connection's request sequence: three selective
// containments to one join, one wide stream and one wide aggregation.
var clusterCycle = [...]string{"op1", "op1", "op1", "op2", "op3", "op4"}

func (in *clusterScatterInst) request(op string, tr *tracer, sp int) error {
	switch op {
	case "op1":
		want := in.w.windows[in.next%len(in.w.windows)]
		in.next++
		return in.cl.containment("scan", want, false, tr, sp)
	case "op2":
		return in.cl.join("join", in.w.join, tr, sp)
	case "op3":
		return in.cl.containment("scan", in.w.wide, false, tr, sp)
	default:
		return in.cl.aggregation("scan", in.w.wideAgg, tr, sp)
	}
}

// run sends the cycle over one connection. One request already keeps
// both workers busy, a shard each, so a second connection would add
// only queueing between requests, which serve_mixed measures; here it
// would blur what the scatter, the shard RPCs and the merge cost. It
// ends on a whole cycle.
func (in *clusterScatterInst) run(until time.Time, rec *recorder) {
	for ; time.Now().Before(until) || in.turn%len(clusterCycle) != 0; in.turn++ {
		op := clusterCycle[in.turn%len(clusterCycle)]
		rec.op(op, func(sp int) error { return in.request(op, rec.tr, sp) })
	}
}

func (in *clusterScatterInst) layers(m map[string]float64) {
	var engs []*atgis.Engine
	for _, s := range in.c.workers {
		engs = append(engs, s.eng)
	}
	engineLayers(m, engs...)
	now := in.c.coord.Snapshot()
	m["cluster.shard_retries"] = float64(now.ShardRetries - in.base.ShardRetries)
	m["cluster.shard_faults"] = float64(now.ShardFaults - in.base.ShardFaults)
	m["sidecar.hit_ratio"] = servedSidecarRatio(in.c.workerURLs()...)
}

func (in *clusterScatterInst) close() {
	in.cl.close()
	in.c.stop()
}
