package main

import "fixture/internal/lib"

// Unused is the frozen bench directory's own: never reported.
func Unused() {}

func main() { println(lib.BenchOnly(), lib.NewState().BenchRead) }
