package main

import (
	"errors"
	"os/exec"
	"syscall"
	"time"
)

// setChildAttrs makes the kernel kill a started process if the benchmark
// dies first, so no server outlives an interrupted run.
func setChildAttrs(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// sleep blocks the calling thread in nanosleep. The runtime's timers
// wake an idle process no sooner than a millisecond after a shorter
// sleep was asked for, which at 2000 req/s would make the load generator
// itself the latency; nanosleep wakes within tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// endedBySIGTERM says whether a process's exit error means SIGTERM's
// default action killed it: the servers install their drain handler just
// after they start serving, so a cluster stopped right after its set-up
// can meet that window.
func endedBySIGTERM(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}
