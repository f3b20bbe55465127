package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end metrics are CPU time, not wall time. On a shared VM the
// hypervisor takes the CPUs away for milliseconds at a time (CPU steal, up
// to 40% of a run), which stretches every wall-clock latency it lands in;
// the kernel accounts stolen time apart from the time a thread runs, so CPU
// time leaves it out. It also leaves out time spent waiting for the disk,
// which on the checkout's filesystem would otherwise dominate fork, query
// and reverse (store.checkpoint_disk_ms reports that cost per layer).

const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID

// procCPU is the CPU time this process has used, over all its threads.
func procCPU() time.Duration {
	var ts syscall.Timespec
	// clock_gettime fails only for an unknown clock or a bad address.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuNow is procCPU plus the CPU time of this process's live child
// processes (the daemon's native simulators), summed over their threads.
func cpuNow() time.Duration {
	total := procCPU()
	// A read fails only when the thread or process has just exited; it then
	// has no CPU time left to count.
	tasks, _ := os.ReadDir("/proc/self/task")
	for _, t := range tasks {
		kids, _ := os.ReadFile("/proc/self/task/" + t.Name() + "/children")
		for _, pid := range strings.Fields(string(kids)) {
			threads, _ := os.ReadDir("/proc/" + pid + "/task")
			for _, th := range threads {
				total += threadCPU("/proc/" + pid + "/task/" + th.Name() + "/schedstat")
			}
		}
	}
	return total
}

// threadCPU reads a thread's time on the CPU (the first field of its
// schedstat, in nanoseconds); a thread that has exited counts zero.
func threadCPU(path string) time.Duration {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return 0
	}
	ns, _ := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns)
}
