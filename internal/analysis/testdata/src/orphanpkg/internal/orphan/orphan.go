// Package orphan is imported by nothing.
package orphan // want `internal package orphanpkg/internal/orphan is imported by no non-test package`

// Unused is never called.
func Unused() {}
