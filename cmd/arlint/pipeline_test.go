package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModule copies a testdata module into a temp dir so tests that
// write (fixes) never touch the checked-in fixtures.
func copyModule(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("fixture module %s has unexpected subdirectory %s", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sarifLog mirrors the subset of SARIF 2.1.0 the driver emits and code
// scanning requires.
type sarifLog struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID    string `json:"ruleId"`
			RuleIndex int    `json:"ruleIndex"`
			Level     string `json:"level"`
			Message   struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine   int `json:"startLine"`
						StartColumn int `json:"startColumn"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// TestSARIFFormat validates the SARIF envelope: version 2.1.0, one run,
// a rule table carrying every checker, and results with physical
// locations.
func TestSARIFFormat(t *testing.T) {
	bin := buildArlint(t)
	stdout, stderr, code := runIn(t, bin, filepath.Join("testdata", "dirtymod"), "-format=sarif")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-format=sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("sarif version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("sarif $schema = %q does not reference 2.1.0", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "arlint" {
		t.Errorf("tool name = %q, want arlint", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = i
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no short description", r.ID)
		}
	}
	for _, c := range allCheckers {
		if _, ok := ruleIDs[c]; !ok {
			t.Errorf("rule table missing checker %s", c)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for the dirty module")
	}
	for _, r := range run.Results {
		if idx, ok := ruleIDs[r.RuleID]; !ok {
			t.Errorf("result references unknown rule %q", r.RuleID)
		} else if r.RuleIndex != idx {
			t.Errorf("result ruleIndex = %d, want %d for rule %s", r.RuleIndex, idx, r.RuleID)
		}
		if r.Level != "warning" {
			t.Errorf("result level = %q, want warning", r.Level)
		}
		if r.Message.Text == "" {
			t.Error("result with empty message")
		}
		if len(r.Locations) != 1 {
			t.Errorf("result has %d locations, want 1", len(r.Locations))
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || strings.Contains(loc.ArtifactLocation.URI, `\`) {
			t.Errorf("bad artifact URI %q", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result region missing startLine: %+v", loc.Region)
		}
	}
}

// TestFixPipeline applies -fix to a module with fixable findings and
// checks that the module is clean afterwards and that a second -fix run
// changes nothing (idempotency).
func TestFixPipeline(t *testing.T) {
	bin := buildArlint(t)
	dir := copyModule(t, filepath.Join("testdata", "fixmod"))

	// The module starts dirty with fixable findings.
	stdout, _, code := runIn(t, bin, dir)
	if code != 1 {
		t.Fatalf("fixmod should start dirty, exit %d\n%s", code, stdout)
	}

	stdout, stderr, code := runIn(t, bin, dir, "-fix")
	if code != 0 {
		t.Fatalf("-fix left findings behind: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "fixed fix.go") {
		t.Fatalf("-fix did not report fixing fix.go:\n%s", stderr)
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "arlint:allow errflow") {
		t.Errorf("errflow fix did not insert a sentinel:\n%s", fixed)
	}
	if !strings.Contains(string(fixed), "sort.Slice") {
		t.Errorf("maprange fix did not insert sorted-key iteration:\n%s", fixed)
	}
	if !strings.Contains(string(fixed), `"sort"`) {
		t.Errorf("maprange fix did not add the sort import:\n%s", fixed)
	}

	// Second -fix run: already clean, must change nothing.
	_, stderr, code = runIn(t, bin, dir, "-fix")
	if code != 0 {
		t.Fatalf("second -fix run not clean: exit %d\nstderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "fixed") {
		t.Errorf("second -fix run rewrote files:\n%s", stderr)
	}
	again, err := os.ReadFile(filepath.Join(dir, "fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(fixed) {
		t.Errorf("-fix is not idempotent:\n--- first ---\n%s--- second ---\n%s", fixed, again)
	}
}

// TestBadFormat rejects unknown -format values with exit 2.
func TestBadFormat(t *testing.T) {
	bin := buildArlint(t)
	_, stderr, code := runIn(t, bin, ".", "-format=xml")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 for unknown format\nstderr:\n%s", code, stderr)
	}
}
