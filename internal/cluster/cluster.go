// Package cluster implements atgis-serve's coordinator mode: a
// scatter-gather layer that spreads one logical query or join across a
// set of worker atgis-serve processes and merges their NDJSON streams
// back into a single response.
//
// The paper's associative fold is what makes this sound: block results
// compose associatively, so they compose across machines exactly as
// they compose across a single host's workers. A single-pass query
// scatters as byte-range shards aligned to feature boundaries (each
// worker runs the partial pass over its range; aggregation summaries
// Absorb together, containment streams concatenate in offset order); a
// join scatters as partition-grid cell bands (the reference-point dedup
// makes each result pair owned by exactly one cell, so bands partition
// the pair set exactly and band streams concatenate in cell order).
// Merged output is byte-identical to a single-node pass for integer
// counts, MBRs and record streams; floating-point sum aggregates may
// differ in the last ulp because shard merging regroups the additions.
//
// Fault containment follows the engine's contract: every coordinator
// goroutine runs under the pipeline fault envelope, a worker that dies
// mid-stream has its shard retried on a healthy peer (resuming past the
// records already forwarded — sound because shard re-execution is
// deterministic), and a shard that exhausts its retries degrades to an
// in-band error record instead of killing the pass or the process.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"atgis/internal/pipeline"
)

// Config assembles a Coordinator.
type Config struct {
	// Workers lists the worker base URLs (e.g. "http://10.0.0.2:8080").
	// Order is irrelevant: shards are assigned by rendezvous hashing so
	// the preferred worker for a given (source, shard) is stable across
	// requests and across coordinator restarts.
	Workers []string
	// Client issues worker RPCs (nil = a default client with no global
	// timeout — streams are bounded by each request's context, not a
	// transport cap).
	Client *http.Client
	// HealthInterval is the health-probe period (0 = 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (0 = 2s).
	HealthTimeout time.Duration
	// MaxAttempts is the per-shard execution attempt budget, first try
	// included (0 = 3).
	MaxAttempts int
	// Backoff is the base retry delay, doubled per failed attempt and
	// capped at 2s (0 = 100ms).
	Backoff time.Duration
}

// Coordinator owns the worker table, the shard assignment, the health
// loop and the scatter-gather merge.
type Coordinator struct {
	client      *http.Client
	interval    time.Duration
	healthTO    time.Duration
	maxAttempts int
	backoff     time.Duration

	workers []*worker

	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup

	counters Counters
}

// Counters aggregates the coordinator's shard-level fault accounting,
// surfaced in the cluster block of GET /v1/stats.
type Counters struct {
	// ShardRetries counts shard attempts that failed and were retried
	// (on the same or another worker).
	ShardRetries int64 `json:"shard_retries"`
	// ShardFaults counts shards that exhausted their attempt budget and
	// degraded to an in-band shard_fault record.
	ShardFaults int64 `json:"shard_faults"`
	// Scatters counts scatter-gather passes started.
	Scatters int64 `json:"scatters"`
}

// worker is one worker's live health state. A worker starts healthy so
// requests arriving before the first probe are assignable; a stale
// healthy bit only costs one failed attempt, which the per-shard retry
// absorbs.
type worker struct {
	url string

	mu       sync.Mutex
	healthy  bool
	degraded bool // the worker itself reported status "degraded"
	lastErr  string
	probed   time.Time
}

// WorkerStatus is one worker's state in the cluster stats block.
type WorkerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Degraded reports that the worker answered its last probe but its
	// own /healthz said "degraded" (typically a faulted source).
	Degraded  bool   `json:"degraded,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// New builds a Coordinator over cfg.Workers. Call Start to begin health
// probing and Stop to halt it.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: at least one worker URL required")
	}
	c := &Coordinator{
		client:      cfg.Client,
		interval:    cfg.HealthInterval,
		healthTO:    cfg.HealthTimeout,
		maxAttempts: cfg.MaxAttempts,
		backoff:     cfg.Backoff,
		stop:        make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.interval <= 0 {
		c.interval = time.Second
	}
	if c.healthTO <= 0 {
		c.healthTO = 2 * time.Second
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 3
	}
	if c.backoff <= 0 {
		c.backoff = 100 * time.Millisecond
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for _, u := range cfg.Workers {
		u = strings.TrimRight(u, "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		c.workers = append(c.workers, &worker{url: u, healthy: true})
	}
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("cluster: no usable worker URLs")
	}
	return c, nil
}

// Start launches the background health loop.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go c.healthLoop()
}

// Stop halts the health loop and waits for it.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// healthLoop probes every worker each interval. Each round runs under
// the pipeline fault envelope so a panic (a worker returning garbage
// that trips a parser bug) degrades that round, not the process.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.interval)
	defer t.Stop()
	// Probe immediately so the optimistic initial health state is
	// corrected within one timeout rather than one interval.
	for {
		if err := pipeline.Guarded("cluster", "health-probe", 0, c.probeAll); err != nil {
			_ = err // confined; the next round reprobes
		}
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
	}
}

// probeAll health-checks every worker concurrently within one round.
func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pipeline.Guarded("cluster", "health-probe", 0, func() { c.probe(w) }); err != nil {
				w.setHealth(false, false, "probe panic: confined")
			}
		}()
	}
	wg.Wait()
}

// probe runs one /healthz round-trip against w.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), c.healthTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		w.setHealth(false, false, err.Error())
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		w.setHealth(false, false, err.Error())
		return
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		w.setHealth(false, false, fmt.Sprintf("healthz: HTTP %d", resp.StatusCode))
		return
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		w.setHealth(false, false, "healthz: "+err.Error())
		return
	}
	w.setHealth(true, body.Status != "ok", "")
}

func (w *worker) setHealth(healthy, degraded bool, errMsg string) {
	w.mu.Lock()
	w.healthy, w.degraded, w.lastErr = healthy, degraded, errMsg
	w.probed = time.Now()
	w.mu.Unlock()
}

func (w *worker) status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStatus{URL: w.url, Healthy: w.healthy, Degraded: w.degraded, LastError: w.lastErr}
}

// Workers snapshots every worker's health state (stable config order).
func (c *Coordinator) Workers() []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.status()
	}
	return out
}

// Snapshot returns the coordinator's shard-level counters.
func (c *Coordinator) Snapshot() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

func (c *Coordinator) addRetry() {
	c.mu.Lock()
	c.counters.ShardRetries++
	c.mu.Unlock()
}

func (c *Coordinator) addFault() {
	c.mu.Lock()
	c.counters.ShardFaults++
	c.mu.Unlock()
}

func (c *Coordinator) addScatter() {
	c.mu.Lock()
	c.counters.Scatters++
	c.mu.Unlock()
}

// rank returns the worker URLs ordered by assignment preference for
// key: healthy workers first, each group in rendezvous-hash order, so
// the same shard lands on the same worker while it stays healthy and
// fails over deterministically when it does not. A non-nil among
// restricts the ranking to that subset (the workers actually serving a
// source — dispatching a shard to a worker without the data would just
// burn an attempt on its 404).
func (c *Coordinator) rank(key string, among []string) []string {
	eligible := func(url string) bool {
		if among == nil {
			return true
		}
		for _, u := range among {
			if u == url {
				return true
			}
		}
		return false
	}
	healthy := make([]string, 0, len(c.workers))
	var down []string
	for _, w := range c.workers {
		if !eligible(w.url) {
			continue
		}
		w.mu.Lock()
		ok := w.healthy
		w.mu.Unlock()
		if ok {
			healthy = append(healthy, w.url)
		} else {
			down = append(down, w.url)
		}
	}
	rendezvousSort(healthy, key)
	rendezvousSort(down, key)
	return append(healthy, down...)
}

// workerHealthy reports url's current health bit (false for URLs not in
// the worker table).
func (c *Coordinator) workerHealthy(url string) bool {
	for _, w := range c.workers {
		if w.url == url {
			w.mu.Lock()
			ok := w.healthy
			w.mu.Unlock()
			return ok
		}
	}
	return false
}

// ErrSplitBrain is matched (errors.Is) when the workers' views of a
// registered source disagree — different byte sizes or formats under
// one name means each worker would shard a different file, and no merge
// of their outputs is meaningful.
var ErrSplitBrain = errors.New("cluster: workers disagree about source")

// ErrNoWorkers is matched (errors.Is) when no worker serves the
// requested source.
var ErrNoWorkers = errors.New("cluster: no worker serves source")

// SourceView is the cluster-wide view of one registered source.
type SourceView struct {
	Name   string
	Format string // "geojson" | "wkt" | "osmxml"
	Bytes  int64
	// Workers lists the workers (base URLs) serving the source.
	Workers []string
	// Conflict marks a split-brain registration: workers serve different
	// files (format or size differs) under this name.
	Conflict bool
}

// wireSource mirrors the fields of the worker's /v1/sources entries the
// coordinator needs.
type wireSource struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	Bytes  int64  `json:"bytes"`
}

// LookupSource resolves name across the currently healthy workers and
// verifies they agree on its identity (format and byte size). Workers
// that do not serve the source are simply excluded; workers that serve
// a *different* file under the same name make the lookup fail with
// ErrSplitBrain — scattering over divergent copies would interleave
// records from different datasets.
func (c *Coordinator) LookupSource(ctx context.Context, name string) (SourceView, error) {
	view := SourceView{Name: name}
	var firstErr error
	for _, w := range c.workers {
		w.mu.Lock()
		ok := w.healthy
		w.mu.Unlock()
		if !ok {
			continue
		}
		srcs, err := c.fetchSources(ctx, w.url)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("worker %s: %w", w.url, err)
			}
			continue
		}
		for _, s := range srcs {
			if s.Name != name {
				continue
			}
			if len(view.Workers) == 0 {
				view.Format, view.Bytes = s.Format, s.Bytes
			} else if view.Format != s.Format || view.Bytes != s.Bytes {
				return view, fmt.Errorf("%w: %q is %s/%d bytes on %s but %s/%d bytes on %s",
					ErrSplitBrain, name, view.Format, view.Bytes, view.Workers[0],
					s.Format, s.Bytes, w.url)
			}
			view.Workers = append(view.Workers, w.url)
			break
		}
	}
	if len(view.Workers) == 0 {
		if firstErr != nil {
			return view, fmt.Errorf("%w %q (%v)", ErrNoWorkers, name, firstErr)
		}
		return view, fmt.Errorf("%w %q", ErrNoWorkers, name)
	}
	return view, nil
}

// Sources returns the cluster-wide union of registered sources across
// the currently healthy workers, sorted by name. A name whose identity
// (format or byte size) differs across workers is reported with
// Conflict set — queries against it will fail with ErrSplitBrain.
func (c *Coordinator) Sources(ctx context.Context) []SourceView {
	byName := make(map[string]*SourceView)
	for _, w := range c.workers {
		w.mu.Lock()
		ok := w.healthy
		w.mu.Unlock()
		if !ok {
			continue
		}
		srcs, err := c.fetchSources(ctx, w.url)
		if err != nil {
			continue
		}
		for _, s := range srcs {
			v, seen := byName[s.Name]
			if !seen {
				v = &SourceView{Name: s.Name, Format: s.Format, Bytes: s.Bytes}
				byName[s.Name] = v
			} else if v.Format != s.Format || v.Bytes != s.Bytes {
				v.Conflict = true
			}
			v.Workers = append(v.Workers, w.url)
		}
	}
	out := make([]SourceView, 0, len(byName))
	for _, v := range byName {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fetchSources retrieves one worker's registered-source list.
func (c *Coordinator) fetchSources(ctx context.Context, workerURL string) ([]wireSource, error) {
	var body struct {
		Sources []wireSource `json:"sources"`
	}
	if err := c.FetchWorkerJSON(ctx, workerURL, "/v1/sources", &body); err != nil {
		return nil, err
	}
	return body.Sources, nil
}

// FetchWorkerJSON GETs a worker endpoint and decodes its JSON body into
// v (capped at 8 MiB — these are control-plane payloads, not streams).
func (c *Coordinator) FetchWorkerJSON(ctx context.Context, workerURL, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(v)
}

// closeBody drains a bounded remainder of an RPC response body and
// closes it — the drain lets the transport reuse the connection; the
// bound keeps an abandoned mid-stream body from being read to the end.
// It is the pairedrelease release func for every Client.Do response in
// this package.
func closeBody(resp *http.Response) {
	if resp == nil || resp.Body == nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10)) //nolint:errcheck
	resp.Body.Close()
}
