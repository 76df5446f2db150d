// Package cluster is the distributed map/reduce baseline (Hadoop-GIS /
// SpatialHadoop stand-in, paper §2.3): an in-process emulator that
// reproduces the cost structure that makes cluster frameworks lose to a
// single multi-core node on single-pass queries — per-task startup
// latency, materialised map output, a shuffle phase charged at a
// configurable network bandwidth, and boundary-object duplication across
// spatial partitions.
//
// The emulator executes the real query operators over the real data, so
// results are exact; only the distributed-systems overheads are
// simulated (as wall-clock charges), which preserves the relative shape
// of the paper's Fig. 10.
package cluster

import (
	"sync"
	"time"

	"atgis/internal/geom"
	"atgis/internal/partition"
)

// Config models the cluster.
type Config struct {
	// Nodes is the number of worker nodes; tasks run Nodes at a time.
	Nodes int
	// TaskStartup is the per-task launch overhead (JVM spin-up,
	// scheduling) charged before each map or reduce task.
	TaskStartup time.Duration
	// ShuffleMBps is the simulated network bandwidth for moving map
	// output to reducers.
	ShuffleMBps float64
	// BytesPerObject approximates the serialised size of one geometry
	// record during shuffle accounting.
	BytesPerObject int
	// UpfrontIndex adds a SpatialHadoop-style indexing pass charged
	// once before query tasks (Hadoop-GIS leaves it zero and pays more
	// at query time via duplication).
	UpfrontIndex time.Duration
}

// Result aggregates a distributed query.
type Result struct {
	Count        int64
	SumArea      float64
	SumPerimeter float64
	Pairs        int64
	// SimulatedOverhead is the wall-clock charged for task startup and
	// shuffle; Elapsed includes it.
	SimulatedOverhead time.Duration
	Elapsed           time.Duration
	MapTasks          int
	ReduceTasks       int
	ShuffledBytes     int64
}

// Engine runs emulated map/reduce jobs over a feature set.
type Engine struct {
	cfg   Config
	feats []geom.Feature
}

// New loads the dataset into the emulated HDFS (features are kept
// in-memory; the load cost cluster systems pay is charged via
// UpfrontIndex and task overheads).
func New(cfg Config, feats []geom.Feature) *Engine {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.BytesPerObject < 1 {
		cfg.BytesPerObject = 256
	}
	return &Engine{cfg: cfg, feats: feats}
}

// runTasks executes n tasks with the configured parallelism, charging
// startup per task.
func (e *Engine) runTasks(n int, task func(i int)) time.Duration {
	var overhead time.Duration
	var mu sync.Mutex
	sem := make(chan struct{}, e.cfg.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Charge startup as real wall-clock so the emulation is
			// visible in end-to-end timings.
			time.Sleep(e.cfg.TaskStartup)
			mu.Lock()
			overhead += e.cfg.TaskStartup
			mu.Unlock()
			task(i)
		}(i)
	}
	wg.Wait()
	return overhead
}

// chargeShuffle sleeps for the simulated transfer time of b bytes.
func (e *Engine) chargeShuffle(b int64) time.Duration {
	if e.cfg.ShuffleMBps <= 0 {
		return 0
	}
	d := time.Duration(float64(b) / (e.cfg.ShuffleMBps * (1 << 20)) * float64(time.Second))
	time.Sleep(d)
	return d
}

// Aggregation runs the Table-3 aggregation query as a map/reduce job:
// map tasks filter+aggregate partials, the shuffle moves matched records
// to a single reducer (the paper notes Hadoop-GIS pays 3x containment
// time for aggregation), and the reducer combines.
func (e *Engine) Aggregation(ref geom.Geometry, dist geom.DistanceMethod, wantAggregates bool) Result {
	start := time.Now()
	var res Result
	if e.cfg.UpfrontIndex > 0 {
		time.Sleep(e.cfg.UpfrontIndex)
		res.SimulatedOverhead += e.cfg.UpfrontIndex
	}
	tasks := e.cfg.Nodes * 4 // typical over-decomposition
	res.MapTasks = tasks
	type partial struct {
		count   int64
		area    float64
		perim   float64
		matched int64
	}
	partials := make([]partial, tasks)
	refBox := ref.Bound()
	n := len(e.feats)
	res.SimulatedOverhead += e.runTasks(tasks, func(i int) {
		lo := n * i / tasks
		hi := n * (i + 1) / tasks
		p := &partials[i]
		for k := lo; k < hi; k++ {
			f := &e.feats[k]
			if f.Geom == nil || !f.Geom.Bound().Intersects(refBox) {
				continue
			}
			if !geom.Intersects(f.Geom, ref) {
				continue
			}
			p.count++
			p.matched++
			if wantAggregates {
				p.area += geom.SphericalArea(f.Geom)
				p.perim += geom.Perimeter(f.Geom, dist)
			}
		}
	})
	// Shuffle: matched records move to the reducer. Aggregation jobs
	// shuffle the full records (the geometry is needed by the reduce
	// side in Hadoop-GIS's plan), which is why aggregation costs so much
	// more than containment on clusters.
	var matched int64
	for _, p := range partials {
		matched += p.matched
	}
	shuffleBytes := matched * int64(e.cfg.BytesPerObject)
	if !wantAggregates {
		shuffleBytes = matched * 16 // containment ships ids only
	}
	res.ShuffledBytes = shuffleBytes
	res.SimulatedOverhead += e.chargeShuffle(shuffleBytes)
	// Reduce task.
	res.ReduceTasks = 1
	res.SimulatedOverhead += e.runTasks(1, func(int) {
		for _, p := range partials {
			res.Count += p.count
			res.SumArea += p.area
			res.SumPerimeter += p.perim
		}
	})
	res.Elapsed = time.Since(start)
	return res
}

// Containment runs the filter-only query.
func (e *Engine) Containment(ref geom.Geometry) Result {
	return e.Aggregation(ref, geom.SphericalProjection, false)
}

// Join runs a distributed PBSM-style join: partition both sides on a
// grid (duplicating boundary objects — Hadoop-GIS's overhead), shuffle
// every partition to its reducer node, join per partition, and dedup.
func (e *Engine) Join(side func(f *geom.Feature) int, cellSize float64, pred func(a, b geom.Geometry) bool) Result {
	start := time.Now()
	var res Result
	if e.cfg.UpfrontIndex > 0 {
		time.Sleep(e.cfg.UpfrontIndex)
		res.SimulatedOverhead += e.cfg.UpfrontIndex
	}
	grid := partition.NewGrid(extentOf(e.feats), cellSize)
	setA := partition.NewSet(grid, partition.ArrayStore)
	setB := partition.NewSet(grid, partition.ArrayStore)
	geoms := make(map[int64]geom.Geometry, len(e.feats))

	// Map phase: partition with duplication.
	tasks := e.cfg.Nodes * 4
	res.MapTasks = tasks
	var mu sync.Mutex
	n := len(e.feats)
	res.SimulatedOverhead += e.runTasks(tasks, func(i int) {
		lo := n * i / tasks
		hi := n * (i + 1) / tasks
		for k := lo; k < hi; k++ {
			f := &e.feats[k]
			if f.Geom == nil {
				continue
			}
			s := side(f)
			if s < 0 {
				continue
			}
			entry := partition.Entry{Box: f.Geom.Bound(), Off: f.Offset, ID: f.ID}
			mu.Lock()
			geoms[f.ID] = f.Geom
			if s == 0 {
				setA.Insert(entry)
			} else {
				setB.Insert(entry)
			}
			mu.Unlock()
		}
	})
	// Shuffle: every partitioned (and duplicated) record crosses the
	// network to its reducer.
	res.ShuffledBytes = int64(setA.Len()+setB.Len()) * int64(e.cfg.BytesPerObject)
	res.SimulatedOverhead += e.chargeShuffle(res.ShuffledBytes)

	// Reduce phase: join each cell; dedup by pair id.
	cells := grid.NumCells()
	res.ReduceTasks = e.cfg.Nodes
	seen := make(map[[2]int64]bool)
	var pairMu sync.Mutex
	res.SimulatedOverhead += e.runTasks(e.cfg.Nodes, func(node int) {
		for c := node; c < cells; c += e.cfg.Nodes {
			ea := setA.Cell(c)
			eb := setB.Cell(c)
			for _, x := range ea {
				for _, y := range eb {
					if !x.Box.Intersects(y.Box) {
						continue
					}
					if !pred(geoms[x.ID], geoms[y.ID]) {
						continue
					}
					pairMu.Lock()
					if !seen[[2]int64{x.ID, y.ID}] {
						seen[[2]int64{x.ID, y.ID}] = true
						res.Pairs++
					}
					pairMu.Unlock()
				}
			}
		}
	})
	res.Elapsed = time.Since(start)
	return res
}

func extentOf(feats []geom.Feature) geom.Box {
	b := geom.EmptyBox()
	for i := range feats {
		if feats[i].Geom != nil {
			b = b.Union(feats[i].Geom.Bound())
		}
	}
	if b.IsEmpty() {
		return geom.Box{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	}
	return b
}
