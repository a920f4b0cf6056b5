package main

import "orphanpkg/internal/testonly"

func fixture() { testonly.Fixture() }
