package main

// End-to-end tests for the driver: the analyzer suite (atgis-lint ./...)
// and the hot-path escape gate (atgis-lint -hotalloc ./...). The seeded
// halves are the self-test CI relies on: a bare goroutine written into
// internal/pipeline must fail the suite, and a marked function that
// heap-allocates written into internal/lexer must fail the escape gate,
// so a regression that silently blinds either cannot pass as "clean".

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot returns the repo root (this file lives in cmd/atgis-lint).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// buildLint builds the atgis-lint binary into a temp dir.
func buildLint(t *testing.T, root string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "atgis-lint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/atgis-lint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building atgis-lint: %v\n%s", err, out)
	}
	return bin
}

const seededViolation = `package pipeline

// Seeded by cmd/atgis-lint's end-to-end test; if this file survives a
// test run it is safe to delete.
func zzLintSelftestSeed(work []func()) {
	for _, w := range work {
		go w()
	}
}
`

const seededEscape = `package lexer

// Seeded by cmd/atgis-lint's end-to-end test; if this file survives a
// test run it is safe to delete.
//
//atgis:hotpath
func zzLintSelftestEscape(n int) int {
	b := make([]byte, n)
	return len(b)
}
`

func TestEndToEnd(t *testing.T) {
	root := moduleRoot(t)
	bin := buildLint(t, root)

	run := func(args ...string) (string, int) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err == nil {
			return string(out), 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		}
		t.Fatalf("atgis-lint %v: %v\n%s", args, err, out)
		return "", -1
	}
	// seed writes a file that is valid Go (it only violates the lint
	// contract, so a concurrently compiling package is unaffected) and
	// returns its remover.
	seed := func(pkg, name, src string) func() {
		path := filepath.Join(root, "internal", pkg, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Error(err)
			}
		}
	}

	// The committed tree is clean under both gates.
	if out, code := run("./..."); code != 0 {
		t.Fatalf("atgis-lint on a clean tree: exit %d\n%s", code, out)
	}
	if out, code := run("-hotalloc", "./..."); code != 0 {
		t.Fatalf("atgis-lint -hotalloc on a clean tree: exit %d\n%s", code, out)
	}

	// A bare goroutine in internal/pipeline fails the suite.
	remove := seed("pipeline", "zz_lint_selftest_seed.go", seededViolation)
	defer remove()
	out, code := run("./internal/pipeline")
	if code == 0 || !strings.Contains(out, "guardedgo") {
		t.Fatalf("atgis-lint missed the seeded violation: exit %d\n%s", code, out)
	}
	remove()

	// A heap allocation in a marked internal/lexer function fails the
	// escape gate.
	remove = seed("lexer", "zz_lint_selftest_escape.go", seededEscape)
	defer remove()
	out, code = run("-hotalloc", "./...")
	if code != 1 || !strings.Contains(out, "NEW heap escape") || !strings.Contains(out, "zzLintSelftestEscape") {
		t.Fatalf("atgis-lint -hotalloc missed the seeded escape: exit %d\n%s", code, out)
	}
	remove()
}

// TestListAnalyzers sanity-checks the -list surface the docs point at.
func TestListAnalyzers(t *testing.T) {
	root := moduleRoot(t)
	bin := buildLint(t, root)
	cmd := exec.Command(bin, "-list")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, name := range []string{"guardedgo", "pairedrelease", "ctxflow", "mmapalias", "hotalloc"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}
