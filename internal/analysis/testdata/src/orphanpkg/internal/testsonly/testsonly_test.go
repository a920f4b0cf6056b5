// Package testsonly_test is made only of test files, like an external
// test package: nothing imports it, yet it is no orphan.
package testsonly_test

func helper() {}
