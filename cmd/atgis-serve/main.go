// Command atgis-serve exposes an atgis Engine over HTTP: registered
// datasets are memory-mapped once and served to any number of
// concurrent tenants as streaming NDJSON query and join responses, with
// weighted-fair admission control in front of the shared worker pool.
//
//	atgis-gen -n 100000 -format geojson -o data.geojson
//	atgis-serve -listen :8080 -source data=data.geojson
//	curl -s localhost:8080/v1/query -d '{"source":"data","kind":"aggregation","ref":[-45,-45,45,45],"want":["area"]}'
//
// See docs/API.md for the full HTTP surface and docs/ARCHITECTURE.md
// for how the service layers over the engine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"atgis"
	"atgis/internal/cluster"
	"atgis/internal/server"
)

// sourceFlags collects repeated -source name=path[:format] arguments.
type sourceFlags []string

func (s *sourceFlags) String() string { return strings.Join(*s, ",") }

func (s *sourceFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("-source wants name=path[:format], got %q", v)
	}
	*s = append(*s, v)
	return nil
}

// workerFlags collects repeated -worker url arguments (coordinator
// mode's worker set).
type workerFlags []string

func (w *workerFlags) String() string { return strings.Join(*w, ",") }

func (w *workerFlags) Set(v string) error {
	if !strings.HasPrefix(v, "http://") && !strings.HasPrefix(v, "https://") {
		return fmt.Errorf("-worker wants a base URL like http://host:port, got %q", v)
	}
	*w = append(*w, v)
	return nil
}

// weightFlags collects repeated -tenant-weight name=N arguments into
// the engine's tenant-weight map (admission round-robin and pool
// worker scheduling alike).
type weightFlags map[string]int

func (w weightFlags) String() string {
	var parts []string
	for name, n := range w {
		parts = append(parts, fmt.Sprintf("%s=%d", name, n))
	}
	return strings.Join(parts, ",")
}

func (w weightFlags) Set(v string) error {
	name, num, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("-tenant-weight wants name=N, got %q", v)
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 1 {
		return fmt.Errorf("-tenant-weight %q: weight must be a positive integer", v)
	}
	w[name] = n
	return nil
}

func main() {
	listen := flag.String("listen", ":8080", "address to serve on")
	workers := flag.Int("workers", 0, "shared worker pool size (0 = NumCPU)")
	blockSize := flag.Int("block", 1<<20, "default block size in bytes")
	maxInFlight := flag.Int("max-inflight", 4, "concurrently executing queries (0 disables admission control)")
	tenantQueue := flag.Int("queue", 16, "per-tenant admission queue cap")
	allowRegister := flag.Bool("allow-register", false,
		"allow POST /v1/sources to map server-local files named by clients (leave off when fronting untrusted clients)")
	defaultTimeout := flag.Duration("default-timeout", 0,
		"wall-clock budget for query/join requests without a timeout_ms field (0 = unbounded)")
	maxTimeout := flag.Duration("max-timeout", 0,
		"cap on any client-requested timeout_ms; larger requests are clamped (0 = uncapped)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second,
		"how long graceful shutdown waits for in-flight streams before cutting their connections")
	sidecarFlag := flag.String("sidecar", "off",
		"structural sidecar index (<path>.atgx): off | read | readwrite")
	coordinator := flag.Bool("coordinator", false,
		"run as a cluster coordinator: scatter queries and joins over the -worker set and merge their streams (no local engine or sources)")
	healthInterval := flag.Duration("health-interval", time.Second,
		"coordinator worker health-probe period")
	var workerURLs workerFlags
	flag.Var(&workerURLs, "worker", "worker base URL for -coordinator mode, e.g. http://10.0.0.2:8080 (repeatable)")
	var sources sourceFlags
	flag.Var(&sources, "source", "register a dataset at startup: name=path[:format] (repeatable)")
	weights := weightFlags{}
	flag.Var(weights, "tenant-weight",
		"tenant weight name=N (repeatable; absent tenants weigh 1): N× the admission round-robin share and N× the worker-pool share of concurrent passes")
	flag.Parse()

	sidecarMode, err := atgis.ParseSidecarMode(*sidecarFlag)
	if err != nil {
		log.Fatal(err)
	}

	var srv *server.Server
	if *coordinator {
		// Coordinator mode: no local engine, no local sources — every
		// pass scatters over the workers.
		if len(workerURLs) == 0 {
			log.Fatal("atgis-serve: -coordinator requires at least one -worker url")
		}
		if len(sources) > 0 {
			log.Fatal("atgis-serve: -source is a worker flag; register the files on the workers")
		}
		if *allowRegister {
			log.Fatal("atgis-serve: -allow-register is a worker flag; the coordinator never registers sources")
		}
		cl, err := cluster.New(cluster.Config{
			Workers:        workerURLs,
			HealthInterval: *healthInterval,
		})
		if err != nil {
			log.Fatalf("atgis-serve: %v", err)
		}
		cl.Start()
		defer cl.Stop()
		srv = server.New(server.Config{
			Cluster:        cl,
			DefaultTimeout: *defaultTimeout,
			MaxTimeout:     *maxTimeout,
		})
	} else {
		if len(workerURLs) > 0 {
			log.Fatal("atgis-serve: -worker requires -coordinator")
		}
		eng := atgis.NewEngine(atgis.EngineConfig{
			Workers:       *workers,
			BlockSize:     *blockSize,
			MaxInFlight:   *maxInFlight,
			TenantQueue:   *tenantQueue,
			TenantWeights: weights,
			Sidecar:       sidecarMode,
		})
		defer eng.Close()
		srv = server.New(server.Config{
			Engine:         eng,
			Options:        atgis.Options{BlockSize: *blockSize},
			AllowRegister:  *allowRegister,
			DefaultTimeout: *defaultTimeout,
			MaxTimeout:     *maxTimeout,
		})
	}
	defer srv.Close()

	for _, spec := range sources {
		name, rest, _ := strings.Cut(spec, "=")
		path, format, _ := strings.Cut(rest, ":")
		if err := srv.RegisterFile(name, path, format); err != nil {
			log.Fatalf("atgis-serve: %v", err)
		}
		log.Printf("registered source %q from %s", name, path)
	}

	hs := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// No WriteTimeout: query responses stream for as long as the
		// pass runs; a dropped connection cancels the pass instead.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			// Streams still open past the drain budget: cut their
			// connections, whose contexts cancel the passes.
			log.Printf("atgis-serve: drain exceeded %v, abandoning %d in-flight request(s)",
				*shutdownTimeout, srv.Inflight())
			hs.Close()
		}
	}()

	if *coordinator {
		log.Printf("atgis-serve coordinating %d worker(s) on %s", len(workerURLs), *listen)
	} else {
		log.Printf("atgis-serve listening on %s (workers=%d, max-inflight=%d)", *listen, *workers, *maxInFlight)
	}
	err = hs.ListenAndServe()
	// Wait for Shutdown to drain in-flight requests before the deferred
	// srv.Close()/eng.Close() unmap sources and stop the pool under
	// them. stop() unblocks the goroutine when ListenAndServe failed on
	// its own (e.g. port in use) rather than via a signal.
	stop()
	<-shutdownDone
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("atgis-serve: %v", err)
	}
	log.Printf("atgis-serve: shut down")
}
