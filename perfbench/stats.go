package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the user plus system CPU this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostCPU is a snapshot of the host's aggregate CPU counters from
// /proc/stat: all jiffies, the idle (idle and iowait) and the stolen
// ones.
type hostCPU struct{ total, idle, steal uint64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	for k, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		h.total += v
		switch k {
		case 3, 4:
			h.idle += v
		case 7:
			h.steal = v
		}
	}
	return h
}

// stealShare is the share of host CPU time stolen between two snapshots.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// unstolen is the share of the busy host CPU time between two snapshots
// (every jiffy but idle and iowait, steal included) that the hypervisor
// did not steal: the share of the time the CPUs wanted to run that they
// ran. It is 1 when the CPUs were idle throughout.
func unstolen(a, b hostCPU) float64 {
	busy := busyJiffies(a, b)
	stolen := int64(b.steal) - int64(a.steal)
	if busy <= 0 || stolen < 0 || stolen > busy {
		return 1
	}
	return 1 - float64(stolen)/float64(busy)
}

// busyJiffies is the busy host CPU time between two snapshots.
func busyJiffies(a, b hostCPU) int64 {
	// Signed: the kernel's iowait counter may step backwards.
	return int64(b.total-b.idle) - int64(a.total-a.idle)
}

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	return r
}

// quantile is the nearest-rank q-quantile of xs: the smallest value
// with at least q·n samples at or below it. For q = 0.9 and n >= 100
// at least ten samples lie beyond it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	k := int(math.Ceil(q*float64(len(ys)))) - 1
	return ys[min(max(k, 0), len(ys)-1)]
}

// tailBlock is the fewest operations a block of blockP90 holds, so that
// each block's 90th percentile has at least ten samples beyond it.
const tailBlock = 100

// blockP90 cuts xs, in operation order, into as many consecutive blocks
// of at least tailBlock samples as it holds (one block when fewer) and
// returns the median of the blocks' 90th percentiles. A burst of host
// CPU steal then moves the tail of one block, not the run's figure.
func blockP90(xs []float64) float64 {
	blocks := max(1, len(xs)/tailBlock)
	ps := make([]float64, blocks)
	for b := range ps {
		ps[b] = quantile(xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks], 0.9)
	}
	return median(ps)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
