package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; v need not be sorted. Zero for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// steady is the statistic the gated latencies report: the lower
// quartile. Noise on a shared host only ever adds time, in bursts that
// move a run's median by several times what they move its lower
// quartile (README.md, "Noise"), so the lower quartile tracks the code
// and the median tracks the neighbours.
func steady(v []float64) float64 { return quantile(v, 0.25) }

// tail returns the highest of p99, p95, p90 that still has at least ten
// samples beyond it, falling back to the upper quartile, with the
// percentile it chose.
func tail(v []float64) (value float64, pct int) {
	for _, p := range []int{99, 95, 90} {
		if float64(len(v))*float64(100-p)/100 >= 10 {
			return quantile(v, float64(p)/100), p
		}
	}
	return quantile(v, 0.75), 75
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mbPerS converts bytes moved in a duration given in ms to MB/s
// (MB = 2^20 bytes, as pipeline.Stats.ThroughputMBs).
func mbPerS(bytes int64, durMS float64) float64 {
	if durMS <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / (durMS / 1e3)
}

// recorder collects the latency samples of one measured window and
// counts every operation into the run's tally. Ops from concurrent
// client goroutines share one recorder; the lock is held for
// nanoseconds against ops of milliseconds.
type recorder struct {
	tally *tally
	tr    *tracer // nil on untraced windows

	mu  sync.Mutex
	lat map[string][]float64 // op class → latencies in ms
}

func newRecorder(t *tally, tr *tracer) *recorder {
	return &recorder{tally: t, tr: tr, lat: make(map[string][]float64)}
}

// op times fn as one operation of class name, under a span whose id fn
// receives to parent the calls it makes. fn returns an error when the
// call failed or its answer differed from the oracle; that is a failed
// op, never a crash.
func (r *recorder) op(name string, fn func(sp int) error) {
	sp, end := r.tr.open(name, rootSpan)
	start := time.Now()
	err := fn(sp)
	d := time.Since(start)
	end()
	r.add(name, ms(d), err)
}

// add records one operation the caller timed itself.
func (r *recorder) add(name string, latMS float64, err error) {
	r.mu.Lock()
	r.lat[name] = append(r.lat[name], latMS)
	r.mu.Unlock()
	r.tally.count(name, err)
}

func (r *recorder) samples(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lat[name]
}
