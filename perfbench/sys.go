package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// cpuTime returns the user plus system CPU time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB;
// Linux reports it as getrusage's maxrss, in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTicks returns the machine's busy and stolen CPU ticks from
// /proc/stat, summed over its CPUs; zeros where it is unavailable. Busy
// is user, nice, system, irq and softirq time; steal is the time a
// runnable virtual CPU waited for the hypervisor to run it.
func cpuTicks() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return ticks{}
	}
	// user nice system idle iowait irq softirq steal
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(fields[1+i], 10, 64); err != nil {
			return ticks{}
		}
	}
	return ticks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// ticks are CPU time counts from /proc/stat, in its clock ticks.
type ticks struct{ busy, steal uint64 }

func (t ticks) sub(u ticks) ticks { return ticks{t.busy - u.busy, t.steal - u.steal} }
func (t ticks) add(u ticks) ticks { return ticks{t.busy + u.busy, t.steal + u.steal} }

// stealShare is the share of the CPU time the VM's work asked for that
// the hypervisor withheld: steal over busy plus steal, 0 without data.
func (t ticks) stealShare() float64 {
	if t.busy+t.steal == 0 {
		return 0
	}
	return float64(t.steal) / float64(t.busy+t.steal)
}
