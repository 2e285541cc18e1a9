// Command simlint runs the repository's determinism and simulator-invariant
// static analyzer (internal/lint) over package patterns.
//
// Usage:
//
//	simlint [-json] [-explain] [-suppressions] [-rules R1,R3]
//	        [-baseline FILE] [-write-baseline FILE] [packages...]
//
// Patterns default to ./... and support the "./dir/..." form. Output is one
// compiler-style line per finding (file:line:col: message [RULE]); -explain
// adds the interprocedural call chain under each finding that has one. With
// -json a machine-readable summary is written to stdout instead: an
// envelope naming the tool, Go version, date, module, packages and rules,
// then the diagnostics and censuses of every //lint:ignore suppression and
// every //lint:exempt-field manifest entry. -suppressions prints both
// censuses human-readably and exits 0.
//
// -baseline compares the census totals against a committed baseline file
// (lint_baseline.json at the repo root): any drift — a new suppression or
// exemption, or one removed without updating the baseline — fails the run.
// -write-baseline regenerates that file from the current tree.
//
// Exit codes: 0 clean, 1 diagnostics reported or baseline drift, 2
// load/usage error. The rule catalog, the directive syntax and the baseline
// workflow are documented in LINT.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/lint"
)

// JSONDiagnostic is one finding in -json output. Chain, when present, is
// the interprocedural witness path from the flagged call down to the
// direct source (tier 3 rules only).
type JSONDiagnostic struct {
	Rule    string         `json:"rule"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
	Chain   []JSONChainHop `json:"chain,omitempty"`
}

// JSONChainHop is one step of a diagnostic's witness chain.
type JSONChainHop struct {
	Name string `json:"name"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// JSONSuppression is one //lint:ignore site in the -json suppression census.
type JSONSuppression struct {
	File   string   `json:"file"`
	Line   int      `json:"line"`
	Rules  []string `json:"rules"`
	Reason string   `json:"reason"`
}

// Suppressions is the census of //lint:ignore directives: every suppressed
// diagnostic is a standing claim that needs auditing, so the -json output
// makes the full list (and per-rule totals) machine-readable.
type Suppressions struct {
	Total  int               `json:"total"`
	ByRule map[string]int    `json:"by_rule"`
	Sites  []JSONSuppression `json:"sites"`
}

// JSONExemption is one //lint:exempt-field site in the -json census.
type JSONExemption struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Rule   string `json:"rule"`
	Type   string `json:"type"`
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// Exemptions is the census of //lint:exempt-field manifest entries —
// the same standing-claim audit as Suppressions, for the field rules.
type Exemptions struct {
	Total  int             `json:"total"`
	ByRule map[string]int  `json:"by_rule"`
	Sites  []JSONExemption `json:"sites"`
}

// Summary is the -json file layout: an envelope (tool, Go version, date,
// module, packages, rules) around the diagnostics and both censuses.
type Summary struct {
	Tool         string           `json:"tool"`
	GoVersion    string           `json:"go_version"`
	Date         string           `json:"date"`
	Module       string           `json:"module"`
	Packages     []string         `json:"packages"`
	Rules        []string         `json:"rules"`
	Diagnostics  []JSONDiagnostic `json:"diagnostics"`
	Suppressions Suppressions     `json:"suppressions"`
	Exemptions   Exemptions       `json:"exemptions"`
}

// CensusCounts is the baseline's view of one census: totals only, no
// positions, so moving a directive within a file is not drift but adding
// or removing one is.
type CensusCounts struct {
	Total  int            `json:"total"`
	ByRule map[string]int `json:"by_rule"`
}

// Baseline is the committed lint_baseline.json layout: the expected
// suppression and exemption censuses for the tree.
type Baseline struct {
	Suppressions CensusCounts `json:"suppressions"`
	Exemptions   CensusCounts `json:"exemptions"`
}

func main() {
	var (
		asJSON   = flag.Bool("json", false, "emit a machine-readable JSON summary on stdout")
		explain  = flag.Bool("explain", false, "print the interprocedural call chain under each finding that has one")
		ruleSel  = flag.String("rules", "", "comma-separated rule IDs to run (default: all)")
		census   = flag.Bool("suppressions", false, "print the //lint:ignore and //lint:exempt-field censuses instead of diagnostics and exit 0")
		baseline = flag.String("baseline", "", "compare census totals against this baseline file; drift fails the run")
		writeBl  = flag.String("write-baseline", "", "write the current census totals to this baseline file and exit")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, summary, err := run(patterns, *ruleSel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if *writeBl != "" {
		if err := writeBaseline(*writeBl, summary); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		return
	}
	if *census {
		printCensus(summary.Suppressions, summary.Exemptions)
		return
	}
	drift, err := checkBaseline(*baseline, summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if *asJSON {
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", data)
	} else {
		for _, d := range diags {
			fmt.Println(shorten(d))
			if *explain {
				for _, h := range d.Chain {
					fmt.Printf("\tvia %s at %s:%d\n", h.Name, relPath(h.Pos.Filename), h.Pos.Line)
				}
			}
		}
	}
	for _, line := range drift {
		fmt.Fprintln(os.Stderr, "simlint:", line)
	}
	if len(diags) > 0 || len(drift) > 0 {
		if len(diags) > 0 && !*asJSON {
			fmt.Fprintf(os.Stderr, "simlint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// writeBaseline regenerates the committed census baseline from the
// current tree.
func writeBaseline(path string, s *Summary) error {
	b := Baseline{
		Suppressions: CensusCounts{Total: s.Suppressions.Total, ByRule: s.Suppressions.ByRule},
		Exemptions:   CensusCounts{Total: s.Exemptions.Total, ByRule: s.Exemptions.ByRule},
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkBaseline compares the run's census totals against the committed
// baseline and returns one human-readable line per drift. An unreadable
// or unparsable baseline is an error (exit 2); drift is the caller's
// exit-1 condition, so a new suppression cannot land silently.
func checkBaseline(path string, s *Summary) ([]string, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %v", path, err)
	}
	var drift []string
	drift = append(drift, diffCensus("suppression", b.Suppressions,
		CensusCounts{Total: s.Suppressions.Total, ByRule: s.Suppressions.ByRule})...)
	drift = append(drift, diffCensus("exemption", b.Exemptions,
		CensusCounts{Total: s.Exemptions.Total, ByRule: s.Exemptions.ByRule})...)
	if len(drift) > 0 {
		drift = append(drift, fmt.Sprintf(
			"census drift against %s; if intended, regenerate it with -write-baseline %s", path, path))
	}
	return drift, nil
}

// diffCensus reports per-rule and total count differences between the
// baseline and the current tree.
func diffCensus(kind string, want, got CensusCounts) []string {
	var out []string
	rules := map[string]bool{}
	for r := range want.ByRule {
		rules[r] = true
	}
	for r := range got.ByRule {
		rules[r] = true
	}
	var order []string
	for r := range rules {
		order = append(order, r)
	}
	sort.Strings(order)
	for _, r := range order {
		if want.ByRule[r] != got.ByRule[r] {
			out = append(out, fmt.Sprintf("%s census drift for %s: baseline %d, tree %d",
				kind, r, want.ByRule[r], got.ByRule[r]))
		}
	}
	if want.Total != got.Total {
		out = append(out, fmt.Sprintf("%s census drift: baseline total %d, tree total %d",
			kind, want.Total, got.Total))
	}
	return out
}

func run(patterns []string, ruleSel string) ([]lint.Diagnostic, *Summary, error) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		return nil, nil, err
	}
	rules := lint.AllRules()
	if ruleSel != "" {
		rules = rules[:0:0]
		for _, id := range strings.Split(ruleSel, ",") {
			r := lint.RuleByID(strings.TrimSpace(id))
			if r == nil {
				return nil, nil, fmt.Errorf("unknown rule %q", id)
			}
			rules = append(rules, r)
		}
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		return nil, nil, err
	}
	var pkgs []*lint.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	diags := lint.Run(pkgs, rules)

	s := &Summary{
		Tool:      "simlint",
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format(time.RFC3339),
		Module:    loader.ModulePath,
		Packages:  paths,
	}
	for _, r := range rules {
		s.Rules = append(s.Rules, r.ID)
	}
	s.Diagnostics = []JSONDiagnostic{}
	for _, d := range diags {
		jd := JSONDiagnostic{
			Rule:    d.Rule,
			File:    relPath(d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Message: d.Message,
		}
		for _, h := range d.Chain {
			jd.Chain = append(jd.Chain, JSONChainHop{
				Name: h.Name,
				File: relPath(h.Pos.Filename),
				Line: h.Pos.Line,
			})
		}
		s.Diagnostics = append(s.Diagnostics, jd)
	}
	s.Suppressions = Suppressions{ByRule: map[string]int{}, Sites: []JSONSuppression{}}
	for _, dir := range lint.IgnoreDirectives(pkgs) {
		s.Suppressions.Total++
		for _, r := range dir.Rules {
			s.Suppressions.ByRule[r]++
		}
		s.Suppressions.Sites = append(s.Suppressions.Sites, JSONSuppression{
			File:   relPath(dir.Pos.Filename),
			Line:   dir.Pos.Line,
			Rules:  dir.Rules,
			Reason: dir.Reason,
		})
	}
	s.Exemptions = Exemptions{ByRule: map[string]int{}, Sites: []JSONExemption{}}
	for _, dir := range lint.ExemptDirectives(pkgs) {
		s.Exemptions.Total++
		s.Exemptions.ByRule[dir.Rule]++
		s.Exemptions.Sites = append(s.Exemptions.Sites, JSONExemption{
			File:   relPath(dir.Pos.Filename),
			Line:   dir.Pos.Line,
			Rule:   dir.Rule,
			Type:   dir.Type,
			Field:  dir.Field,
			Reason: dir.Reason,
		})
	}
	return diags, s, nil
}

// printCensus writes the human-readable //lint:ignore and
// //lint:exempt-field censuses: one line per site, then per-rule totals.
// Directive creep shows up here before it shows up as a debugging
// session.
func printCensus(s Suppressions, e Exemptions) {
	for _, site := range s.Sites {
		fmt.Printf("%s:%d: %s: %s\n", site.File, site.Line, strings.Join(site.Rules, ","), site.Reason)
	}
	fmt.Printf("simlint: %d suppression(s)%s\n", s.Total, ruleTotals(s.ByRule))
	for _, site := range e.Sites {
		fmt.Printf("%s:%d: %s: %s.%s: %s\n", site.File, site.Line, site.Rule, site.Type, site.Field, site.Reason)
	}
	fmt.Printf("simlint: %d field exemption(s)%s\n", e.Total, ruleTotals(e.ByRule))
}

// ruleTotals renders a per-rule count map as " (R3=2 R4=8)".
func ruleTotals(byRule map[string]int) string {
	var rules []string
	for r := range byRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	parts := make([]string, 0, len(rules))
	for _, r := range rules {
		parts = append(parts, fmt.Sprintf("%s=%d", r, byRule[r]))
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, " ") + ")"
}

// shorten rewrites a diagnostic with a cwd-relative file path.
func shorten(d lint.Diagnostic) string {
	d.Pos.Filename = relPath(d.Pos.Filename)
	return d.String()
}

func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
