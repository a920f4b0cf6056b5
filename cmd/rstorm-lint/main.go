// Command rstorm-lint checks the repository's invariants-as-lint suite
// (DESIGN.md §9): determinism of scheduling/control-plane packages,
// zero-alloc //rstorm:hotpath functions, journal reason-code
// exhaustiveness, StatisticServer route discipline, no package-level
// state in orchestrated runs, and no internal package that nothing
// imports.
//
// Standalone (whole-program checks included):
//
//	go build -o rstorm-lint ./cmd/rstorm-lint && ./rstorm-lint ./...
//
// As a vet tool (per-package, driven and cached by cmd/go):
//
//	go vet -vettool=$(pwd)/rstorm-lint ./...
package main

import "rstorm/internal/analysis"

func main() {
	analysis.Main()
}
