package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel kill a started process when rpdrill
// dies, whatever kills it.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
