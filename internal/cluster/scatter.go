package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"atgis/internal/faultinject"
	"atgis/internal/pipeline"
)

// SubRequest is one scatter unit: the worker request body plus its
// assignment identity.
type SubRequest struct {
	// Body is the worker request JSON, POSTed verbatim.
	Body []byte
	// Key identifies the shard for rendezvous assignment (e.g.
	// "query:roads:3"): the same key prefers the same worker across
	// requests, keeping per-worker page caches warm.
	Key string
	// Raw, when non-nil, is the raw byte range this sub-request shards
	// and marks the response as opening with a ShardHead handshake.
	Raw *Range
	// Prefer, when set, pins the first attempt to this worker while it
	// is healthy. The coordinator spreads a scatter's shards round-robin
	// over the serving workers — per-shard rendezvous ranking alone can
	// pile several shards of a small scatter onto one worker. Retries
	// ignore it and follow the health-ranked order.
	Prefer string
}

// ScatterSpec drives one scatter-gather pass over a set of workers.
type ScatterSpec struct {
	// Path is the worker endpoint ("/v1/query" or "/v1/join").
	Path string
	// Tenant is forwarded as X-Atgis-Tenant so worker-side admission
	// accounts the scattered work to the original tenant.
	Tenant string
	// Workers, when non-nil, restricts shard assignment to this subset
	// of the coordinator's workers (the ones serving the source).
	Workers []string
	// Subs are the shards, merged strictly in slice order.
	Subs []SubRequest
	// Emit forwards one payload NDJSON line (no trailing newline) to
	// the client in global stream order; false aborts the scatter (the
	// client is gone).
	Emit func(line []byte) bool
	// OnSummary receives shard idx's terminal summary line, in shard
	// order, exactly once per non-faulted shard; a non-nil error aborts.
	OnSummary func(idx int, line []byte) error
	// OnFault is invoked in-band, in shard order, when shard idx
	// exhausts its attempt budget; false aborts the scatter. The records
	// shard idx forwarded before its last failure remain in the stream —
	// deterministic re-execution means they are a correct prefix of the
	// shard's output — and the fault record marks the hole that follows
	// them.
	OnFault func(idx int, err error) bool
}

// errClientGone marks an Emit refusal: the downstream client hung up.
var errClientGone = errors.New("cluster: client gone")

// abortError wraps failures that must stop the whole scatter
// immediately (client gone, context cancelled, merge-callback error) —
// never retried, never degraded to a shard fault.
type abortError struct{ err error }

func (e *abortError) Error() string { return e.err.Error() }
func (e *abortError) Unwrap() error { return e.err }

func abort(err error) error { return &abortError{err} }

// permanentError wraps per-shard failures that retrying cannot fix
// (handshake divergence, protocol violations): the shard degrades to a
// fault without burning the remaining attempts.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err} }

// Scatter runs one scatter-gather pass: every sub-request is dispatched
// concurrently (workers start computing immediately), and the response
// streams are merged strictly in shard order — unread shards are paced
// by transport backpressure, not buffered. A shard whose worker fails
// mid-stream is retried on the next-preferred peer with bounded
// backoff, resuming past the payload records already forwarded (shard
// re-execution is deterministic, so the replay's prefix is
// byte-identical to what the dead worker sent). A shard that exhausts
// its budget is reported through OnFault and the pass continues.
//
// Scatter returns nil when the pass ran to completion (shard faults
// included — they are in-band degradation, not pass failure) and an
// error only when the pass aborted.
func (c *Coordinator) Scatter(ctx context.Context, spec ScatterSpec) error {
	c.addScatter()
	// The scatter's private context: cancelled on exit so the drain
	// below never waits on a worker that is still streaming.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(spec.Subs)
	pending := make([]chan dialResult, n)
	for i := range spec.Subs {
		pending[i] = make(chan dialResult, 1)
		order := c.rank(spec.Subs[i].Key, spec.Workers)
		if len(order) == 0 {
			return ErrNoWorkers
		}
		url := order[0]
		if p := spec.Subs[i].Prefer; p != "" && c.workerHealthy(p) {
			url = p
		}
		c.dispatch(sctx, &spec, i, url, pending[i])
	}
	consumed := 0
	defer func() {
		cancel()
		// Every dispatch sends exactly once; with the context cancelled
		// the sends arrive promptly, so this drain cannot hang.
		for i := consumed; i < n; i++ {
			d := <-pending[i]
			closeBody(d.resp)
		}
	}()

	prevEnd := int64(-1) // aligned-end chain across byte shards
	for i := range spec.Subs {
		err := c.mergeShard(sctx, &spec, i, pending[i], &prevEnd)
		consumed = i + 1
		if err == nil {
			continue
		}
		var ab *abortError
		if errors.As(err, &ab) {
			if errors.Is(err, errClientGone) {
				return errClientGone
			}
			return ab.err
		}
		if sctx.Err() != nil {
			return sctx.Err()
		}
		// Attempt budget exhausted (or a permanent per-shard failure):
		// degrade in-band and keep going.
		c.addFault()
		if spec.OnFault == nil {
			return err
		}
		if !spec.OnFault(i, err) {
			return errClientGone
		}
		if spec.Subs[i].Raw != nil {
			// The chain cannot be verified across a hole; restart it at
			// the next shard rather than mis-flagging it as divergent.
			prevEnd = -1
		}
	}
	return nil
}

// dialResult is one attempt's connection outcome.
type dialResult struct {
	resp *http.Response
	url  string
	err  error
}

// dispatch issues shard idx's POST on its own goroutine so all shards
// start computing concurrently; the merge loop consumes responses in
// shard order. The goroutine runs under the pipeline fault envelope —
// the shard.rpc fault site fires inside it, so an injected (or real)
// panic in the RPC path is confined to this attempt and surfaces as a
// retryable dial error.
func (c *Coordinator) dispatch(ctx context.Context, spec *ScatterSpec, idx int, url string, ch chan<- dialResult) {
	go func() {
		d := dialResult{url: url}
		if err := pipeline.Guarded(spec.Tenant, "shard-rpc", idx, func() {
			faultinject.Fire("shard.rpc", spec.Tenant, int64(idx))
			d.resp, d.err = c.post(ctx, url, spec.Path, spec.Tenant, spec.Subs[idx].Body)
		}); err != nil {
			d.err = err
		}
		ch <- d
	}()
}

// post issues one worker RPC. The returned response's body is owned by
// the caller (closeBody).
//
// Shard RPCs ask for identity encoding. Left to itself, net/http's
// transport offers gzip on every request, so each worker would deflate
// its shard stream and this merge would inflate it again — CPU spent on
// a loopback or LAN hop, on the serial stage of the scatter. An explicit
// Accept-Encoding turns the transport's transparent gzip off for any
// caller-supplied Client; gzip stays negotiated on the client hop only.
func (c *Coordinator) post(ctx context.Context, workerURL, path, tenant string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "identity")
	if tenant != "" {
		req.Header.Set("X-Atgis-Tenant", tenant)
	}
	return c.client.Do(req)
}

// mergeShard drives shard idx to completion: consume the pre-dispatched
// first attempt, then retry on failure with bounded backoff against the
// next-preferred workers, resuming past the records already forwarded.
func (c *Coordinator) mergeShard(ctx context.Context, spec *ScatterSpec, idx int, first <-chan dialResult, prevEnd *int64) error {
	forwarded := 0
	var committed *ShardHead
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		var d dialResult
		if attempt == 0 {
			d = <-first
		} else {
			c.addRetry()
			if err := sleepCtx(ctx, retryDelay(c.backoff, attempt)); err != nil {
				return abort(err)
			}
			// Re-rank against current health: the worker that just died
			// is usually already marked down; otherwise stepping through
			// the preference order still moves off it.
			order := c.rank(spec.Subs[idx].Key, spec.Workers)
			redial := make(chan dialResult, 1)
			c.dispatch(ctx, spec, idx, order[attempt%len(order)], redial)
			d = <-redial
		}
		err := c.consume(ctx, spec, idx, d, &forwarded, &committed, prevEnd)
		if err == nil {
			return nil
		}
		lastErr = fmt.Errorf("shard %d attempt %d on %s: %w", idx, attempt+1, d.url, err)
		var ab *abortError
		if errors.As(err, &ab) {
			return err
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return lastErr
		}
		if ctx.Err() != nil {
			return abort(context.Cause(ctx))
		}
	}
	return lastErr
}

// consume runs one attempt's stream merge under the fault envelope: the
// shard.merge fault site fires inside it, so a panic while decoding or
// forwarding this worker's stream fails only this attempt.
func (c *Coordinator) consume(ctx context.Context, spec *ScatterSpec, idx int, d dialResult, forwarded *int, committed **ShardHead, prevEnd *int64) error {
	defer closeBody(d.resp)
	if d.err != nil {
		return d.err
	}
	var err error
	if gerr := pipeline.Guarded(spec.Tenant, "shard-merge", idx, func() {
		faultinject.Fire("shard.merge", spec.Tenant, int64(idx))
		err = c.mergeStream(spec, idx, d.resp, forwarded, committed, prevEnd)
	}); gerr != nil {
		return gerr
	}
	return err
}

// mergeStream decodes one worker response and forwards its payload.
// forwarded counts the payload records committed to the client across
// attempts: a retry skips that many records of the replayed stream
// before forwarding resumes.
func (c *Coordinator) mergeStream(spec *ScatterSpec, idx int, resp *http.Response, forwarded *int, committed **ShardHead, prevEnd *int64) error {
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sub := &spec.Subs[idx]
	dec := NewStreamDecoder(resp.Body)
	skip := *forwarded
	var head *ShardHead
	// commit pins this attempt's handshake once its output reaches the
	// client: from then on a replacement worker must reproduce it
	// exactly, or the already-forwarded prefix belongs to a different
	// file than the rest would.
	commit := func() {
		if *committed == nil && head != nil {
			*committed = head
		}
	}
	for {
		line, kind, err := dec.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("stream truncated before summary record")
			}
			return err
		}
		switch kind {
		case RecShardHead:
			if sub.Raw == nil || head != nil {
				return permanent(fmt.Errorf("unexpected shard head record"))
			}
			h, err := DecodeShardHead(line)
			if err != nil {
				return permanent(err)
			}
			if h.Start != sub.Raw.Start || h.End != sub.Raw.End {
				return permanent(fmt.Errorf("shard head answers range [%d,%d), asked [%d,%d)",
					h.Start, h.End, sub.Raw.Start, sub.Raw.End))
			}
			if *committed != nil && h != **committed {
				return permanent(fmt.Errorf("%w: shard %d replay aligned to [%d,%d), committed prefix aligned to [%d,%d)",
					ErrSplitBrain, idx, h.AlignedStart, h.AlignedEnd, (*committed).AlignedStart, (*committed).AlignedEnd))
			}
			if *committed == nil && *prevEnd >= 0 && h.AlignedStart != *prevEnd {
				return permanent(fmt.Errorf("%w: shard %d aligned_start %d != previous shard aligned_end %d",
					ErrSplitBrain, idx, h.AlignedStart, *prevEnd))
			}
			head = &h
		case RecPayload:
			if sub.Raw != nil && head == nil {
				return permanent(fmt.Errorf("payload record before shard head"))
			}
			if skip > 0 {
				skip--
				continue
			}
			commit()
			if !spec.Emit(line) {
				return abort(errClientGone)
			}
			*forwarded++
		case RecError:
			// The worker's pass failed in-band (panic, source fault,
			// timeout on its side): retry the shard elsewhere.
			return fmt.Errorf("worker error record: %s", line)
		case RecSummary:
			if skip > 0 {
				return permanent(fmt.Errorf("%w: shard %d replay produced %d fewer records than already forwarded",
					ErrSplitBrain, idx, skip))
			}
			commit()
			if sub.Raw != nil {
				if *committed == nil {
					return permanent(fmt.Errorf("stream ended without shard head"))
				}
				*prevEnd = (*committed).AlignedEnd
			}
			if spec.OnSummary != nil {
				if err := spec.OnSummary(idx, line); err != nil {
					return abort(err)
				}
			}
			return nil
		}
	}
}

// retryDelay is the bounded exponential backoff before attempt n (1+).
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if max := 2 * time.Second; d > max || d <= 0 {
		d = 2 * time.Second
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-t.C:
		return nil
	}
}
