package analysis

import "testing"

func TestGlobalvarGolden(t *testing.T) {
	RunGolden(t, []*Analyzer{NewGlobalvar("globalvar")}, "globalvar")
}

func TestGlobalvarOutOfScope(t *testing.T) {
	// Packages outside the orchestrated-run scope may keep their globals:
	// the analyzer must stay silent there.
	a := NewGlobalvar("rstorm/internal/core")
	ti := newTestImporter("testdata/src")
	pkg, err := ti.load("globalvar")
	if err != nil {
		t.Fatalf("loading testdata package: %v", err)
	}
	var raw []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		report:   func(d Diagnostic) { raw = append(raw, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Errorf("out-of-scope package produced %d diagnostics, want 0: %v", len(raw), raw)
	}
}
