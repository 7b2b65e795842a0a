//go:build !linux

package main

import (
	"os/exec"
	"time"
)

func setChildAttrs(cmd *exec.Cmd) {}

func sleep(d time.Duration) { time.Sleep(d) }

func endedBySIGTERM(err error) bool { return false }
