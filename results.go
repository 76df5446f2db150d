package atgis

import (
	"context"
	"errors"
	"sync/atomic"

	"atgis/internal/geom"
	"atgis/internal/join"
	"atgis/internal/query"
)

// stream is the single-consumer iterator core shared by Results and
// JoinPairs: a bounded channel the producer fills (with backpressure), a
// terminal summary published before done closes, and Close/ctx
// cancellation that abandons the producer early.
type stream[T any, S any] struct {
	ch     chan T
	done   chan struct{}
	cancel context.CancelFunc
	closed atomic.Bool // cancellation came from Close, not the caller's ctx
	cur    T
	sum    S
	err    error
}

// init wires the channels and returns the producer's (cancellable)
// context.
func (s *stream[T, S]) init(ctx context.Context, buf int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	s.ch = make(chan T, buf)
	s.done = make(chan struct{})
	s.cancel = cancel
	return ctx
}

// finish publishes the terminal state; the producer must call it exactly
// once, after its last send.
func (s *stream[T, S]) finish(sum S, err error) {
	s.sum, s.err = sum, err
	close(s.ch)
	close(s.done)
	s.cancel()
}

// next advances the iterator.
func (s *stream[T, S]) next() bool {
	v, ok := <-s.ch
	if !ok {
		return false
	}
	s.cur = v
	return true
}

// wait blocks until the producer finished, discarding any items the
// consumer did not iterate — without this drain, a producer blocked on a
// full channel would never finish and Summary/Err would deadlock. The
// stream is single-consumer: wait must not race a concurrent next.
func (s *stream[T, S]) wait() {
	for range s.ch {
	}
	<-s.done
}

// summary returns the terminal summary and error after the producer
// finished (remaining unconsumed items are discarded, but the pass
// itself still completes so the summary covers the full input).
func (s *stream[T, S]) summary() (S, error) {
	s.wait()
	return s.sum, s.err
}

// terminalErr is summary's error half. Deliberate abandonment via close
// is not an error; cancellation of the caller's own context is (the
// stream is incomplete without the caller having asked for that).
func (s *stream[T, S]) terminalErr() error {
	s.wait()
	if s.closed.Load() && errors.Is(s.err, context.Canceled) {
		return nil
	}
	return s.err
}

// abandon cancels the producer and waits it out.
func (s *stream[T, S]) abandon() error {
	s.closed.Store(true)
	s.cancel()
	return s.terminalErr()
}

// Results streams the matching features of a prepared query as the
// pipeline produces them, in input order, instead of buffering the full
// result set:
//
//	res := pq.Stream(ctx, src)
//	for res.Next() {
//	        f := res.Feature()
//	        ...
//	}
//	sum, err := res.Summary()
//
// The iterator applies backpressure: a slow consumer slows the
// pipeline's ordered merge rather than growing a buffer. Close (or
// cancelling ctx) abandons the run early. Results is single-consumer;
// Summary and Err may be called once iteration stopped.
type Results struct {
	stream[StreamedFeature, *Result]
	// reparse rebuilds a tape-answered match's geometry from its offset;
	// nil for a source no tape pass runs over.
	reparse join.Reparser
}

// StreamedFeature is one matched feature plus its per-feature outcome
// (aggregate contributions).
type StreamedFeature struct {
	Feature geom.Feature
	Val     query.FeatureVal
}

// Stream starts the prepared query over src and returns the streaming
// iterator over matching features. The underlying pipeline runs on the
// engine's workers; cancelling ctx or calling Close stops it without
// waiting for the full pass.
func (p *PreparedQuery) Stream(ctx context.Context, src Source) *Results {
	return p.stream(ctx, src, nil)
}

// stream is Stream over the whole source (shard nil) or one shard range.
func (p *PreparedQuery) stream(ctx context.Context, src Source, shard *ShardRange) *Results {
	r := &Results{}
	if f := src.DataFormat(); f == GeoJSON || f == WKT {
		// Building either reparser reads nothing.
		r.reparse, _ = p.engine.reparser(ctx, src, p.opt)
	}
	ctx = r.init(ctx, 64)
	go func() {
		sum, err := p.run(ctx, src, shard, func(f StreamedFeature) {
			select {
			case r.ch <- f:
			case <-ctx.Done():
			}
		})
		r.finish(sum, err)
	}()
	return r
}

// Next advances to the next matching feature, blocking until one is
// available or the stream ends. It returns false when the pass is
// complete, failed, or was cancelled; check Err or Summary afterwards.
func (r *Results) Next() bool { return r.next() }

// Feature returns the current match. The pointer is valid until the
// next call to Next — copy the pointed-to value (its geometry and
// properties are not reused) to retain a match across iterations.
//
// A warm pass answers a match whose bounding box lies inside a
// rectangular query window from the sidecar tape, without parsing it;
// Feature then re-parses that one feature's geometry from the source on
// its first call (Geom stays nil if the bytes no longer hold it). Match
// reads only what the pass produced.
func (r *Results) Feature() *geom.Feature {
	f := &r.cur.Feature
	if f.Geom == nil && r.cur.Val.Matched && r.reparse != nil {
		f.Geom, _ = r.reparse(f.Offset)
	}
	return f
}

// Match returns the current match's identity and bounding box. Unlike
// Feature it never touches the source bytes.
func (r *Results) Match() query.Match {
	return query.Match{ID: r.cur.Feature.ID, Offset: r.cur.Feature.Offset, Box: r.cur.Val.Box}
}

// Value returns the current match's per-feature outcome.
func (r *Results) Value() query.FeatureVal { return r.cur.Val }

// Summary blocks until the pass finishes and returns the aggregate
// result (counts, sums, MBR, stats); matches not consumed via Next are
// discarded, but the aggregates still cover the whole input. When the
// stream was cancelled or failed, the error is returned and the summary
// is nil.
func (r *Results) Summary() (*Result, error) { return r.summary() }

// Err returns the terminal error of the stream, blocking until the pass
// finishes. Deliberate abandonment via Close is not an error;
// cancellation of the caller's own context is.
func (r *Results) Err() error { return r.terminalErr() }

// Close abandons the stream: the pipeline stops dispatching blocks and
// the remaining matches are discarded. Safe to call at any time, also
// after full consumption.
func (r *Results) Close() error { return r.abandon() }

// JoinPairs streams the result pairs of a spatial join as the join
// phase finds them (the partition phase still completes first — the
// join is two-pass by construction). A cell drops the pairs whose
// reference point another cell owns before refining them, so nothing is
// globally buffered or sorted. Pairs arrive in nondecreasing owning-cell
// order, deterministically: the same sequence on every run, whatever the
// worker count. The sweep holds at most its in-flight window of completed
// cell batches ahead of the consumer. Like Results, JoinPairs is
// single-consumer.
type JoinPairs struct {
	stream[join.Pair, *JoinResult]
}

// JoinStream starts the two-pass join over src and returns the
// streaming pair iterator. It runs Engine.Join's sweep — the same pairs
// and JoinStats — without collecting or sorting the pairs: they arrive
// in nondecreasing owning-cell order, deterministically. The sweep
// runs as cell-batch tasks on the engine's worker pool, so concurrent
// joins and queries interleave at the same scheduling quantum.
func (e *Engine) JoinStream(ctx context.Context, src Source, spec JoinSpec, opt Options) *JoinPairs {
	r := &JoinPairs{}
	ctx = r.init(ctx, 256)
	go func() {
		sum, err := e.joinAdmitted(ctx, src, spec, opt, func(p join.Pair) {
			select {
			case r.ch <- p:
			case <-ctx.Done():
			}
		})
		r.finish(sum, err)
	}()
	return r
}

// Next advances to the next joined pair, blocking until one is found or
// the join ends.
func (r *JoinPairs) Next() bool { return r.next() }

// Pair returns the current joined pair (valid after Next returned true).
func (r *JoinPairs) Pair() join.Pair { return r.cur }

// Summary blocks until the join finishes and returns phase stats (its
// Pairs slice is nil — the pairs were streamed; unconsumed pairs are
// discarded).
func (r *JoinPairs) Summary() (*JoinResult, error) { return r.summary() }

// Err returns the terminal error, blocking until the join finishes.
// Deliberate abandonment via Close is not an error; cancellation of the
// caller's own context is.
func (r *JoinPairs) Err() error { return r.terminalErr() }

// Close abandons the stream and stops the join.
func (r *JoinPairs) Close() error { return r.abandon() }
