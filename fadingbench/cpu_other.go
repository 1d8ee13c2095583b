//go:build !amd64

package main

// cpuModel is not read on this architecture.
func cpuModel() string { return "unknown" }
