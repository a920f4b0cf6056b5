// Package used is imported by the program, so it is not an orphan.
package used

// Hello is what the program calls.
func Hello() {}
