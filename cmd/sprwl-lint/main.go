// Command sprwl-lint runs the repository's custom static analyzers — the
// mechanized form of the concurrency and hot-path invariants documented in
// DESIGN.md §8 — over module packages:
//
//	go run ./cmd/sprwl-lint ./...
//
// Patterns follow the go tool's form ("./...", "./internal/core",
// "./internal/..."); with no arguments the whole module is checked. The
// exit status is 0 when no diagnostics survive suppression and no
// suppression is stale, 1 when any invariant violation or stale
// //sprwl:allow directive is reported, and 2 when loading or type-checking
// fails. Intentional exceptions are suppressed at the site with
// //sprwl:allow(<analyzer>) plus a justification; suppressed findings are
// counted on stderr so they stay visible, and a directive that suppresses
// nothing is itself an error — delete the allow when the finding it
// justified is gone.
//
// With -json the run is emitted as a single machine-readable object on
// stdout (diagnostics, suppressed findings, stale allows, and counts; see
// the report type) for CI artifacts and dashboards; the human format and
// exit codes are unchanged otherwise. When -baseline is also given the
// object carries a "baseline" section: the snapshot path, how many run
// findings the baseline suppressed, the fresh findings that fail the
// gate, and the stale snapshot entries awaiting a -write-baseline
// refresh.
//
// -baseline <file> turns the run into a regression gate against a
// committed snapshot (itself a -json report, conventionally
// LINT_baseline.json at the module root): findings present in the run but
// absent from the baseline fail the gate, and baseline entries no longer
// reproduced also fail — a fixed finding must be removed from the
// snapshot, so the baseline only ever shrinks deliberately. Findings are
// keyed by (file, analyzer, message), not line numbers, so unrelated
// edits don't churn the gate. -write-baseline <file> records the current
// run as the new snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sprwl/internal/analysis/atomicmix"
	"sprwl/internal/analysis/bodyidempotent"
	"sprwl/internal/analysis/doomedread"
	"sprwl/internal/analysis/driver"
	"sprwl/internal/analysis/fenceorder"
	"sprwl/internal/analysis/hotpathalloc"
	"sprwl/internal/analysis/lockorder"
	"sprwl/internal/analysis/spanleak"
)

var analyzers = []*driver.Analyzer{
	atomicmix.Analyzer,
	bodyidempotent.Analyzer,
	doomedread.Analyzer,
	fenceorder.Analyzer,
	hotpathalloc.Analyzer,
	lockorder.Analyzer,
	spanleak.Analyzer,
}

// finding is one diagnostic in the -json report.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// staleAllow is one unused suppression directive in the -json report,
// with the full position and the analyzer names it claims to silence so
// dashboards can link straight to the directive.
type staleAllow struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Column    int      `json:"column"`
	Analyzers []string `json:"analyzers"`
}

// baselineReport is the -json section describing a -baseline gated run:
// how many findings the committed snapshot silenced, which findings are
// new (gate failures), and which snapshot entries are stale because no
// run diagnostic reproduces them (the baseline must shrink).
type baselineReport struct {
	Path string `json:"path"`
	// Suppressed counts run diagnostics matched — and therefore
	// silenced — by a baseline entry.
	Suppressed int       `json:"suppressed"`
	Fresh      []finding `json:"fresh"`
	Stale      []finding `json:"stale"`
}

// report is the top-level -json object.
type report struct {
	Diagnostics []finding       `json:"diagnostics"`
	Suppressed  []finding       `json:"suppressed"`
	StaleAllows []staleAllow    `json:"staleAllows"`
	Baseline    *baselineReport `json:"baseline,omitempty"`
	Counts      struct {
		Diagnostics int `json:"diagnostics"`
		Suppressed  int `json:"suppressed"`
		StaleAllows int `json:"staleAllows"`
	} `json:"counts"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the run as a JSON object on stdout")
	baselinePath := flag.String("baseline", "", "gate the run against a committed -json snapshot: new findings fail, entries no longer reproduced require a baseline refresh")
	writeBaseline := flag.String("write-baseline", "", "record the current run's diagnostics as the baseline snapshot at this path")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	prog, err := driver.NewProgram(moduleDir)
	if err != nil {
		fatal(err)
	}
	pkgs, err := prog.LoadPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	res, err := driver.RunAnalyzers(prog, pkgs, analyzers)
	if err != nil {
		fatal(err)
	}

	// Positions are reported relative to the module root: stable across
	// checkouts, so JSON artifacts diff cleanly between CI runs.
	rel := func(file string) string {
		if r, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return file
	}
	toFindings := func(ds []driver.Diagnostic) []finding {
		out := make([]finding, 0, len(ds))
		for _, d := range ds {
			p := prog.Fset.Position(d.Pos)
			out = append(out, finding{
				File: rel(p.Filename), Line: p.Line, Column: p.Column,
				Analyzer: d.Analyzer.Name, Message: d.Message,
			})
		}
		return out
	}

	var r report
	r.Diagnostics = toFindings(res.Diagnostics)
	r.Suppressed = toFindings(res.Suppressed)
	r.StaleAllows = make([]staleAllow, 0, len(res.StaleAllows))
	for _, a := range res.StaleAllows {
		p := prog.Fset.Position(a.Pos)
		r.StaleAllows = append(r.StaleAllows, staleAllow{File: rel(p.Filename), Line: p.Line, Column: p.Column, Analyzers: a.Names})
	}
	r.Counts.Diagnostics = len(r.Diagnostics)
	r.Counts.Suppressed = len(r.Suppressed)
	r.Counts.StaleAllows = len(r.StaleAllows)

	// The baseline diff runs before emission so a -json run carries the
	// gate's verdict in the same object CI archives.
	var fresh, fixed []finding
	if *baselinePath != "" {
		fresh, fixed, err = diffBaseline(*baselinePath, r.Diagnostics)
		if err != nil {
			fatal(err)
		}
		b := &baselineReport{
			Path:       *baselinePath,
			Suppressed: len(r.Diagnostics) - len(fresh),
			Fresh:      fresh,
			Stale:      fixed,
		}
		if b.Fresh == nil {
			b.Fresh = []finding{}
		}
		if b.Stale == nil {
			b.Stale = []finding{}
		}
		r.Baseline = b
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Printf("%s: %s: %s\n", prog.Fset.Position(d.Pos), d.Analyzer.Name, d.Message)
		}
		for _, a := range res.StaleAllows {
			fmt.Printf("%s: stale //sprwl:allow(%s): suppresses nothing; delete it or re-justify against a live finding\n",
				prog.Fset.Position(a.Pos), strings.Join(a.Names, ", "))
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(os.Stderr, "sprwl-lint: %d finding(s) suppressed by //sprwl:allow\n", n)
		}
	}

	if *writeBaseline != "" {
		if err := writeBaselineFile(*writeBaseline, r); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sprwl-lint: wrote baseline with %d finding(s) to %s\n", len(r.Diagnostics), *writeBaseline)
	}

	if *baselinePath != "" {
		for _, f := range fresh {
			fmt.Fprintf(os.Stderr, "sprwl-lint: new finding not in baseline: %s:%d: %s: %s\n", f.File, f.Line, f.Analyzer, f.Message)
		}
		for _, f := range fixed {
			fmt.Fprintf(os.Stderr, "sprwl-lint: baseline entry no longer reproduced (refresh with -write-baseline): %s: %s: %s\n", f.File, f.Analyzer, f.Message)
		}
		if bad := len(fresh) + len(fixed) + len(res.StaleAllows); bad > 0 {
			fmt.Fprintf(os.Stderr, "sprwl-lint: baseline gate failed: %d new, %d fixed-but-listed, %d stale suppression(s)\n",
				len(fresh), len(fixed), len(res.StaleAllows))
			os.Exit(1)
		}
		return
	}

	if bad := len(res.Diagnostics) + len(res.StaleAllows); bad > 0 {
		fmt.Fprintf(os.Stderr, "sprwl-lint: %d invariant violation(s) and/or stale suppression(s)\n", bad)
		os.Exit(1)
	}
}

// baselineKey identifies a finding across line-number churn: position is
// advisory, identity is (file, analyzer, message).
type baselineKey struct {
	File     string
	Analyzer string
	Message  string
}

// diffBaseline loads a committed -json snapshot and splits the current
// diagnostics against it: fresh findings are absent from the snapshot,
// fixed entries are snapshot rows no run diagnostic reproduces. Duplicate
// keys are counted, so adding a second instance of a known finding in the
// same file still trips the gate.
func diffBaseline(path string, current []finding) (fresh, fixed []finding, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	counts := make(map[baselineKey]int)
	for _, f := range base.Diagnostics {
		counts[baselineKey{f.File, f.Analyzer, f.Message}]++
	}
	for _, f := range current {
		k := baselineKey{f.File, f.Analyzer, f.Message}
		if counts[k] > 0 {
			counts[k]--
		} else {
			fresh = append(fresh, f)
		}
	}
	for _, f := range base.Diagnostics {
		k := baselineKey{f.File, f.Analyzer, f.Message}
		if counts[k] > 0 {
			counts[k]--
			fixed = append(fixed, f)
		}
	}
	return fresh, fixed, nil
}

// writeBaselineFile records the run's diagnostics (only — suppressions and
// stale allows are transient) as the committed snapshot.
func writeBaselineFile(path string, r report) error {
	var snap report
	snap.Diagnostics = r.Diagnostics
	if snap.Diagnostics == nil {
		snap.Diagnostics = []finding{}
	}
	snap.Suppressed = []finding{}
	snap.StaleAllows = []staleAllow{}
	snap.Counts.Diagnostics = len(snap.Diagnostics)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sprwl-lint:", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod, so the tool works from any subdirectory of the module.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
