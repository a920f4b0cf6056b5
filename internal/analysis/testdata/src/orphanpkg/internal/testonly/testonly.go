// Package testonly is imported only by the program's test, which keeps
// no package alive.
package testonly // want `internal package orphanpkg/internal/testonly is imported by no non-test package`

// Fixture is what the test calls.
func Fixture() {}
