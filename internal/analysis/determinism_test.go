package analysis

import "testing"

func TestDeterminismGolden(t *testing.T) {
	RunGolden(t, []*Analyzer{NewDeterminism("determinism")}, "determinism")
}

func TestDeterminismOutOfScope(t *testing.T) {
	// With the testdata package outside the scope list, every finding
	// disappears — but so do the suppression comments' matches, so run
	// without want-matching and assert zero diagnostics directly.
	a := NewDeterminism("rstorm/internal/core")
	ti := newTestImporter("testdata/src")
	pkg, err := ti.load("determinism")
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

func TestPathInScope(t *testing.T) {
	cases := []struct {
		path, scope string
		want        bool
	}{
		{"rstorm/internal/core", "rstorm/internal/core,rstorm/internal/nimbus", true},
		{"rstorm/internal/trace", "rstorm/internal/core,rstorm/internal/nimbus", false},
		{"anything", "", false},
		{"determinism", "determinism", true},
	}
	for _, c := range cases {
		if got := pathInScope(c.path, c.scope); got != c.want {
			t.Errorf("pathInScope(%q, %q) = %v, want %v", c.path, c.scope, got, c.want)
		}
	}
}
