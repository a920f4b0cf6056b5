// Command rstorm-lint checks the repository's invariants-as-lint suite
// (DESIGN.md §9): determinism of scheduling/control-plane packages,
// zero-alloc //rstorm:hotpath functions, journal reason-code
// exhaustiveness, no package-level state in orchestrated runs, and no
// internal package that nothing imports. It checks every file of the
// named packages (./... when none), test files included, then runs the
// whole-program checks over them:
//
//	go build -o rstorm-lint ./cmd/rstorm-lint && ./rstorm-lint ./...
//
// It exits 0 when clean, 1 with findings and 2 on a usage or load error.
package main

import "rstorm/internal/analysis"

func main() {
	analysis.Main()
}
