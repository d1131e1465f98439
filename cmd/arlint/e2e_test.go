package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildArlint compiles the driver once into a temp dir and returns the
// binary path.
func buildArlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "arlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building arlint: %v\n%s", err, out)
	}
	return bin
}

// runIn runs the binary with args inside dir and returns stdout, stderr
// and the exit code.
func runIn(t *testing.T, bin, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		exitErr, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running arlint: %v\n%s", err, stderr.String())
		}
		code = exitErr.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// diagLine is the documented diagnostic format:
// file:line:col: checker: message
var diagLine = regexp.MustCompile(`^[^:]+\.go:\d+:\d+: (floatcmp|gocapture|normreturn|tolerances|panicfree|errflow|lockbalance|maprange|hotalloc|wgbalance|chanleak|ctxflow|hotpure): .+$`)

// allCheckers mirrors analysis.All; the e2e tests assert the driver
// exposes exactly this suite.
var allCheckers = []string{
	"floatcmp", "gocapture", "normreturn", "tolerances", "panicfree",
	"errflow", "lockbalance", "maprange", "hotalloc",
	"wgbalance", "chanleak", "ctxflow", "hotpure",
}

func TestDirtyModule(t *testing.T) {
	bin := buildArlint(t)
	stdout, stderr, code := runIn(t, bin, filepath.Join("testdata", "dirtymod"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("want ≥3 diagnostics (floatcmp, panicfree, tolerances), got %d:\n%s", len(lines), stdout)
	}
	seen := map[string]bool{}
	for _, line := range lines {
		if !diagLine.MatchString(line) {
			t.Errorf("malformed diagnostic line %q (want file:line:col: checker: message)", line)
			continue
		}
		seen[strings.Split(line, ": ")[1]] = true
	}
	for _, checker := range []string{"floatcmp", "panicfree", "tolerances"} {
		if !seen[checker] {
			t.Errorf("no %s diagnostic in output:\n%s", checker, stdout)
		}
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr summary missing: %q", stderr)
	}
}

func TestCleanModule(t *testing.T) {
	bin := buildArlint(t)
	stdout, stderr, code := runIn(t, bin, filepath.Join("testdata", "cleanmod"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("want no output on a clean module, got:\n%s", stdout)
	}
}

func TestListFlag(t *testing.T) {
	bin := buildArlint(t)
	stdout, _, code := runIn(t, bin, ".", "-list")
	if code != 0 {
		t.Fatalf("arlint -list exit code = %d, want 0", code)
	}
	if lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n"); len(lines) != len(allCheckers) {
		t.Errorf("-list printed %d checkers, want %d:\n%s", len(lines), len(allCheckers), stdout)
	}
	for _, checker := range allCheckers {
		if !strings.Contains(stdout, checker) {
			t.Errorf("-list output missing checker %s:\n%s", checker, stdout)
		}
	}
}

func TestListShowsFixSupportAndState(t *testing.T) {
	bin := buildArlint(t)
	stdout, _, code := runIn(t, bin, ".", "-disable=floatcmp", "-list")
	if code != 0 {
		t.Fatalf("arlint -list exit code = %d, want 0", code)
	}
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "floatcmp"):
			if !strings.Contains(line, "disabled") {
				t.Errorf("-disable=floatcmp not reflected in -list: %q", line)
			}
		case strings.HasPrefix(line, "errflow"):
			if !strings.Contains(line, "enabled") || !strings.Contains(line, "[fix]") {
				t.Errorf("errflow line should be enabled with [fix]: %q", line)
			}
		case strings.HasPrefix(line, "chanleak"):
			if strings.Contains(line, "[fix]") {
				t.Errorf("chanleak has no fixes but -list claims [fix]: %q", line)
			}
		}
	}
}

func TestCheckerSelection(t *testing.T) {
	bin := buildArlint(t)
	dir := filepath.Join("testdata", "dirtymod")

	stdout, _, code := runIn(t, bin, dir, "-checkers=floatcmp")
	if code != 1 {
		t.Fatalf("-checkers=floatcmp exit code = %d, want 1\n%s", code, stdout)
	}
	for _, line := range strings.Split(strings.TrimRight(stdout, "\n"), "\n") {
		if !strings.Contains(line, ": floatcmp: ") {
			t.Errorf("-checkers=floatcmp leaked another checker's finding: %q", line)
		}
	}

	stdout, _, _ = runIn(t, bin, dir, "-disable=floatcmp")
	if strings.Contains(stdout, ": floatcmp: ") {
		t.Errorf("-disable=floatcmp still reports floatcmp findings:\n%s", stdout)
	}
	if !strings.Contains(stdout, ": panicfree: ") {
		t.Errorf("-disable=floatcmp should leave the other checkers running:\n%s", stdout)
	}

	_, stderr, code := runIn(t, bin, dir, "-checkers=nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown checker") {
		t.Errorf("unknown checker: exit %d stderr %q, want 2 with an unknown-checker error", code, stderr)
	}
}

func TestBadPattern(t *testing.T) {
	bin := buildArlint(t)
	_, stderr, code := runIn(t, bin, filepath.Join("testdata", "cleanmod"), "./nonexistent/...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 for a pattern matching nothing\nstderr:\n%s", code, stderr)
	}
}

func TestSubtreePattern(t *testing.T) {
	bin := buildArlint(t)
	// From the repository root, restricting to a clean subtree must
	// exit 0 even though dirtymod-style fixtures exist elsewhere.
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repo root not found: %v", err)
	}
	stdout, stderr, code := runIn(t, bin, root, "./internal/numeric")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
