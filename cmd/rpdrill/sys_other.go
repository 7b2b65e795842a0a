//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op off Linux: run's deferred cleanup is the
// only reaper there.
func dieWithParent(*exec.Cmd) {}
