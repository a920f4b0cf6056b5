// Command app is the program of the orphan-package golden suite: it
// imports one internal package and leaves the other orphaned.
package main

import "orphanpkg/internal/used"

func main() { used.Hello() }
