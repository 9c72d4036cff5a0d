package main

// The traced run's instruments: a CPU profile attributed to layers by the
// leaf frame's package (via go tool pprof, so no module dependency),
// runtime/metrics deltas, and the kernel's per-process I/O counters.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuLayers are the traced table's CPU rows, in print order.
var cpuLayers = []string{"cell", "wire", "syscall", "sched", "gc", "other"}

// schedFuncs and gcFuncs classify runtime leaf frames: the scheduler,
// netpoller and futex paths, and the garbage collector's mark and sweep.
var (
	schedFuncs = []string{
		"findRunnable", "schedule", "park_m", "netpoll", "futex", "notesleep",
		"notewakeup", "notetsleep", "stealWork", "runqsteal", "runqgrab", "wakep",
		"startm", "stopm", "mPark", "ready", "gopark", "goready", "mcall",
		"usleep", "osyield", "epoll", "checkTimers", "procyield", "gosched",
		"execute", "handoffp", "semasleep", "semawakeup", "lock2", "unlock2",
		"resetspinning", "injectglist", "nanotime",
	}
	gcFuncs = []string{
		"gcBgMarkWorker", "gcDrain", "scanobject", "greyobject", "markroot",
		"sweep", "scanblock", "findObject", "wbBuf", "scanstack", "markBits",
		"bulkBarrier", "gcMark", "gcStart", "typePointers", "scanframe",
		"bgscavenge", "scavenge", "heapBitsSetType", "tryDeferToSpanScan",
	}
)

// layerOf maps a leaf function to a layer row.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "crypto/"), strings.HasPrefix(fn, "flashflow/internal/cell."),
		strings.HasPrefix(fn, "vendor/golang.org/x/crypto/"):
		return "cell"
	case strings.HasPrefix(fn, "flashflow/internal/wire."):
		return "wire"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/runtime/"):
		name := fn[strings.LastIndexByte(fn, '.')+1:]
		for _, s := range gcFuncs {
			if strings.Contains(name, s) {
				return "gc"
			}
		}
		for _, s := range schedFuncs {
			if strings.Contains(name, s) {
				return "sched"
			}
		}
	}
	return "other"
}

// profiler wraps a CPU profile written to a file inside the run's
// temporary directory.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// attribute runs go tool pprof over the profile and sums flat (leaf)
// CPU time per layer row, in nanoseconds.
func (p *profiler) attribute() (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ns", p.path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	rows := make(map[string]float64, len(cpuLayers))
	sc := bufio.NewScanner(&out)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected row %q", sc.Text())
		}
		rows[layerOf(f[5])] += flat
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no table in output")
	}
	return rows, nil
}

// rtSample is a runtime/metrics snapshot.
type rtSample struct {
	sched      *metrics.Float64Histogram
	mutexWait  float64
	gcCPU      float64
	totalCPU   float64
	allocBytes uint64
	allocObjs  uint64
}

var rtNames = []string{
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		sched:      s[0].Value.Float64Histogram(),
		mutexWait:  s[1].Value.Float64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		allocBytes: s[4].Value.Uint64(),
		allocObjs:  s[5].Value.Uint64(),
	}
}

// histQuantile returns the q-quantile of the difference b−a of two
// cumulative runtime histograms, at the upper edge of its bucket.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > want {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapSampler records the peak live-heap size while a traced phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// procIO is /proc/self/io: syscalls and bytes through read/write-family
// calls, summed over the process's threads.
type procIO struct{ syscalls, bytes float64 }

func readProcIO() (procIO, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	var io procIO
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr", "syscw":
			io.syscalls += n
		case "rchar", "wchar":
			io.bytes += n
		}
	}
	return io, nil
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's high-water resident set size.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
