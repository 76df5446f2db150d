package main

import (
	"strconv"
	"sync"
	"time"
)

// The yardstick is a fixed piece of work that uses nothing from the
// repository: a byte-at-a-time state machine over a text buffer and a
// batch of strconv.ParseFloat calls, on as many goroutines as the
// engines have workers. A run times it between the slices of its
// measured window and scales each slice's latencies by how much slower
// or faster than the reference the host ran it, so that a neighbour
// that slows the host for minutes moves the yardstick and the program
// alike and drops out of the reported number. A change to the
// repository cannot move the yardstick.

const (
	yardstickBytes = 4 << 20 // text per goroutine, larger than its cache share
	yardstickNums  = 20000   // float literals parsed per goroutine
	yardstickReps  = 3       // timings per reading

	// yardstickRefMS is the reading on the host the bounds were set on
	// when it is quiet, so that scaled numbers read as that host's ms.
	yardstickRefMS = 11.0
)

type yardstick struct {
	text [][]byte // one buffer per goroutine
	nums []string
	sink uint64 // keeps the work observable

	// readings holds every reading taken, in order: yardstickReps
	// timings each, in ms.
	readings [][]float64
}

func newYardstick(goroutines int) *yardstick {
	y := &yardstick{}
	// A fixed xorshift stream: the same text on every host and run.
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const alphabet = `0123456789.,-[]{}":eE abcdefghijklmnopqrstuvwxyz`
	for g := 0; g < goroutines; g++ {
		b := make([]byte, yardstickBytes)
		for i := range b {
			b[i] = alphabet[next()%uint64(len(alphabet))]
		}
		y.text = append(y.text, b)
	}
	for i := 0; i < yardstickNums; i++ {
		v := float64(int64(next()%360_000_000_000)-180_000_000_000) / 1e9
		y.nums = append(y.nums, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return y
}

// once runs the work on every goroutine at the same time and returns
// the wall time.
func (y *yardstick) once() time.Duration {
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for _, text := range y.text {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, depth, inString := uint64(14695981039346656037), 0, false
			for _, c := range text {
				switch {
				case c == '"':
					inString = !inString
				case inString:
				case c == '[' || c == '{':
					depth++
				case c == ']' || c == '}':
					depth--
				}
				h = (h ^ uint64(c) ^ uint64(depth)) * 1099511628211
			}
			sum := 0.0
			for _, s := range y.nums {
				v, _ := strconv.ParseFloat(s, 64) // literals this file made: always valid
				sum += v
			}
			mu.Lock()
			y.sink += h + uint64(int64(sum))
			mu.Unlock()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// read takes one reading.
func (y *yardstick) read() {
	t := make([]float64, yardstickReps)
	for i := range t {
		t[i] = ms(y.once())
	}
	y.readings = append(y.readings, t)
}

// scale is the factor that turns a time measured while readings lo to
// hi (exclusive, clamped) were taken into the time the reference host
// would have needed: the reference over the lower quartile of their
// timings, for the reason the gated latencies use that quartile.
func (y *yardstick) scale(lo, hi int) float64 {
	var t []float64
	for _, r := range y.readings[lo:min(hi, len(y.readings))] {
		t = append(t, r...)
	}
	return yardstickRefMS / steady(t)
}
