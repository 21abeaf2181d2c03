//go:build linux

package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU set of 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, tid int, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU binds every thread of the process, and so every thread it
// will start, to the highest-numbered CPU it may run on (CPU 0 takes most
// of a guest's interrupts).
func pinToOneCPU() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return err
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0 && cpu < 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// A thread inherits its creator's mask. Two passes: a thread started
	// during the first by one not yet bound is bound by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread ended since it was listed.
			if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}
