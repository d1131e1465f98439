package analysis

import (
	"testing"
)

// TestSuiteComplete pins the size of the checker suite: a checker
// accidentally dropped from All would silently stop being enforced by
// the meta-test and the driver alike.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"floatcmp", "gocapture", "normreturn", "tolerances", "panicfree",
		"errflow", "lockbalance", "maprange", "hotalloc",
		"wgbalance", "chanleak", "ctxflow", "hotpure",
	}
	if len(All) != len(want) {
		t.Fatalf("len(All) = %d, want %d", len(All), len(want))
	}
	for i, a := range All {
		if a.Name != want[i] {
			t.Errorf("All[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}

// TestRepositoryInvariants is the meta-test: it loads every package in
// this module and runs the full checker suite, so `go test ./...`
// enforces the repository's numeric, concurrency and API invariants on
// every change. A failure here means either real code regressed or a
// new finding needs fixing (or, rarely, a documented //arlint:allow
// sentinel).
func TestRepositoryInvariants(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from %s; the loader is missing most of the module", len(pkgs), root)
	}
	diags := Run(pkgs, All)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix them or add a //arlint:allow sentinel with a reason", len(diags))
	}
}
