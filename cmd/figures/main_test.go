package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunRejectsUnknownFig: an ID no section lists is an error naming
// the valid IDs, not an empty artifact.
func TestRunRejectsUnknownFig(t *testing.T) {
	for _, fig := range []string{"bogus", "E4", ""} {
		err := run(fig, "", experiments.Options{})
		if err == nil {
			t.Errorf("-fig %q accepted, want an error", fig)
			continue
		}
		if !strings.Contains(err.Error(), "staticerr") {
			t.Errorf("-fig %q: error %q does not list the valid IDs", fig, err)
		}
	}
}

// TestSectionIDsUnique: every -fig value selects exactly one section
// (or, for "all", the stock artifact).
func TestSectionIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range experiments.IDs() {
		if seen[id] {
			t.Errorf("-fig %q listed twice", id)
		}
		seen[id] = true
	}
}
