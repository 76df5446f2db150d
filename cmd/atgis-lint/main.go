// Command atgis-lint runs the atgis static-analysis suite — the
// project-specific invariants off-the-shelf linters can't see:
//
//	guardedgo      goroutines in pipeline/join/server run under the
//	               Guarded/runShielded fault envelope
//	pairedrelease  admission slots, scheduler registrations, mmaps,
//	               gzip/stream writers, pooled scratch are released on
//	               every return path
//	ctxflow        request/pass paths thread the caller's context
//	mmapalias      block/source []byte never outlives its pass uncopied
//	hotalloc       every //atgis:hotpath directive marks a function
//
// Usage, from the module root:
//
//	atgis-lint ./...                   run the suite
//	atgis-lint -list                   list the analyzers
//	atgis-lint -hotalloc ./...         diff hot-path heap escapes against
//	                                   internal/analysis/hotalloc.budget
//	atgis-lint -hotalloc-update ./...  regenerate the budget
//
// Intentional violations are suppressed in source with
// `//lint:atgis-allow <analyzer> <reason>`; an accepted hot-path heap
// escape is a budget line instead. See docs/ANALYZERS.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"atgis/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("atgis-lint", flag.ExitOnError)
	var (
		listFlag  = fs.Bool("list", false, "list analyzers and exit")
		hotalloc  = fs.Bool("hotalloc", false, "run the hot-path escape diff against the committed budget")
		hotUpdate = fs.Bool("hotalloc-update", false, "regenerate the hot-path escape budget")
	)
	fs.Parse(args)

	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *hotalloc || *hotUpdate {
		return runHotalloc(*hotUpdate, patterns)
	}

	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atgis-lint:", err)
		return 2
	}
	bad := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "atgis-lint:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Println(d)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "atgis-lint: %d violation(s) — fix, or suppress with `%s <analyzer> <reason>`\n",
			bad, analysis.AllowDirective)
		return 1
	}
	return 0
}

// runHotalloc runs the escape diff (or regenerates the budget).
func runHotalloc(update bool, patterns []string) int {
	rep, err := analysis.EscapeDiff(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atgis-lint -hotalloc:", err)
		return 2
	}
	if rep.Marked == 0 {
		fmt.Fprintln(os.Stderr, "atgis-lint -hotalloc: no //atgis:hotpath functions found — "+
			"the directive set was deleted or mistyped, refusing to report a vacuous pass")
		return 1
	}
	if update {
		if err := analysis.WriteBudget(analysis.DefaultBudgetFile, rep); err != nil {
			fmt.Fprintln(os.Stderr, "atgis-lint -hotalloc-update:", err)
			return 2
		}
		fmt.Printf("hotalloc: budget regenerated with %d escape(s) across %d marked function(s)\n",
			len(rep.Current), rep.Marked)
		return 0
	}
	for _, k := range rep.Stale {
		fmt.Printf("hotalloc: stale budget entry (escape no longer produced): %s\n", k)
	}
	if len(rep.New) > 0 {
		for _, k := range rep.New {
			fmt.Printf("hotalloc: NEW heap escape in hot path: %s\n", k)
		}
		fmt.Fprintf(os.Stderr, "atgis-lint -hotalloc: %d new heap escape(s) in //atgis:hotpath "+
			"functions — eliminate them, or budget them explicitly with -hotalloc-update and "+
			"justify in the PR\n", len(rep.New))
		return 1
	}
	fmt.Printf("hotalloc: ok — %d marked function(s), %d budgeted escape(s), no new escapes\n",
		rep.Marked, len(rep.Current))
	return 0
}
