// Package fixture exercises the pairedrelease protocols with local
// stand-ins for the engine's paired resources: an admission Gate whose
// Acquire returns a release func, a Pool that must be Closed when it was
// started for one run and whose Register returns a handle that must be
// Closed, and the real compress/gzip writer.
package fixture

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
)

// Gate doubles for admission.Gate.
type Gate struct{}

func (g *Gate) Acquire(n int64) (func(), error) { return func() {}, nil }

// PassHandle and Pool double for the scheduler registration protocol.
type PassHandle struct{}

func (h *PassHandle) Close() {}

type Pool struct{}

func (p *Pool) Register(label string) *PassHandle { return &PassHandle{} }

func (p *Pool) Close() {}

// NewPool doubles for pipeline.NewPool: a pool started for one run.
func NewPool(size int) *Pool { return &Pool{} }

// Engine doubles for atgis.Engine, whose register is the root package's
// one Pool.Register call site.
type Engine struct{ pool *Pool }

func (e *Engine) register(label string) *PassHandle { return e.pool.Register(label) }

func work() {}

func goodDeferred(g *Gate) error {
	release, err := g.Acquire(1)
	if err != nil {
		return err
	}
	defer release()
	return nil
}

// goodOwnershipTransfer returns the release func: the caller owns it.
func goodOwnershipTransfer(g *Gate) (func(), error) {
	release, err := g.Acquire(1)
	if err != nil {
		return nil, err
	}
	return release, nil
}

// goodStraightLine releases without defer and without any intervening
// return other than the acquire's own error check.
func goodStraightLine(g *Gate) error {
	release, err := g.Acquire(1)
	if err != nil {
		return err
	}
	work()
	release()
	return nil
}

func badDiscarded(g *Gate) {
	g.Acquire(1) // want `admission slot .* acquired and immediately discarded`
}

func badBlank(g *Gate) error {
	_, err := g.Acquire(1) // want `acquired into _`
	return err
}

func badNeverReleased(g *Gate) bool {
	release, err := g.Acquire(1) // want `acquired but never released`
	if err != nil {
		return false
	}
	return release != nil
}

func badEarlyReturn(g *Gate, fail bool) error {
	release, err := g.Acquire(1)
	if err != nil {
		return err
	}
	if fail {
		return errors.New("leaked") // want `return leaks admission slot`
	}
	release()
	return nil
}

func goodRegister(p *Pool) {
	h := p.Register("tenant")
	defer h.Close()
}

func badRegister(p *Pool) bool {
	h := p.Register("tenant") // want `scheduler pass registration .* never released`
	return h != nil
}

func goodEngineRegister(e *Engine) {
	pass := e.register("tenant")
	defer pass.Close()
	work()
}

func badEngineRegister(e *Engine) bool {
	pass := e.register("tenant") // want `scheduler pass registration .* never released`
	return pass != nil
}

// goodRunScopedPool is join.RunStream's shape: the pool lives as long as the
// sweep, whichever way the sweep ends.
func goodRunScopedPool(fail bool) error {
	pool := NewPool(3)
	defer pool.Close()
	h := pool.Register("sweep")
	defer h.Close()
	if fail {
		return errors.New("sweep failed")
	}
	return nil
}

// goodPoolStored is NewEngine's shape: the engine owns the pool.
func goodPoolStored() *struct{ pool *Pool } {
	return &struct{ pool *Pool }{pool: NewPool(0)}
}

func badPoolLeaked() {
	pool := NewPool(2) // want `run-scoped worker pool .* never released`
	h := pool.Register("sweep")
	defer h.Close()
}

func badPoolEarlyReturn(fail bool) error {
	pool := NewPool(2)
	if fail {
		return errors.New("leaked") // want `return leaks run-scoped worker pool`
	}
	pool.Close()
	return nil
}

func goodGzip(w io.Writer) error {
	zw := gzip.NewWriter(w)
	defer zw.Close()
	_, err := zw.Write([]byte("payload"))
	return err
}

// goodGzipReturnClose releases inside the final return statement.
func goodGzipReturnClose(w io.Writer) error {
	zw := gzip.NewWriter(w)
	work()
	return zw.Close()
}

func badGzip(w io.Writer) error {
	zw := gzip.NewWriter(w) // want `gzip writer .* never released`
	_, err := zw.Write([]byte("payload"))
	return err
}

func badGzipLevel(w io.Writer) error {
	zw, _ := gzip.NewWriterLevel(w, gzip.BestSpeed) // want `gzip writer .* never released`
	_, err := zw.Write([]byte("payload"))
	return err
}

// goodTempFile follows the sidecar's atomic-write shape: the temp
// handle closes (and the file is removed) on every path, including a
// panic recovered in the deferred closure.
func goodTempFile(dir string) (err error) {
	var tmp *os.File
	defer func() {
		if err != nil && tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	tmp, err = os.CreateTemp(dir, "x.tmp*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write([]byte("payload")); err != nil {
		return err
	}
	return tmp.Close()
}

func badTempFile(dir string) error {
	tmp, err := os.CreateTemp(dir, "x.tmp*") // want `temp file handle .* never released`
	if err != nil {
		return err
	}
	_, err = tmp.Write([]byte("payload"))
	return err
}

func goodOpen(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf [16]byte
	_, err = f.Read(buf[:])
	return err
}

func badOpenEarlyReturn(path string, fail bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if fail {
		return errors.New("leaked") // want `return leaks file handle`
	}
	return f.Close()
}

func approvedLeak(g *Gate) bool {
	release, _ := g.Acquire(1) //lint:atgis-allow pairedrelease fixture exception: released by the caller via captured state
	return release != nil
}
