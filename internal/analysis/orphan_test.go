package analysis

import "testing"

func TestOrphanGolden(t *testing.T) {
	RunGolden(t, []*Analyzer{NewOrphan()},
		"orphanpkg/app", "orphanpkg/internal/used", "orphanpkg/internal/orphan",
		"orphanpkg/internal/testonly", "orphanpkg/internal/testsonly")
}

// TestOrphanNeedsAProgram: a run that loads no package main cannot see
// every importer, so it must report nothing — here the orphan itself.
func TestOrphanNeedsAProgram(t *testing.T) {
	a := NewOrphan()
	pkg, err := newTestImporter("testdata/src").load("orphanpkg/internal/orphan")
	if err != nil {
		t.Fatalf("loading testdata package: %v", err)
	}
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		report:   func(d Diagnostic) { t.Errorf("unexpected per-package diagnostic: %s", d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatal(err)
	}
	a.Finish(func(d Diagnostic) { t.Errorf("run without a program reported: %s", d) })
}
