//go:build !linux

package main

// pinToOneCPU is Linux-only; elsewhere the run is left to GOMAXPROCS(1).
func pinToOneCPU() error { return nil }
