package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A
// thinner tail is one or two outliers and does not repeat run to run.
const minTail = 10

// errThinTail refuses a percentile whose tail holds fewer than minTail
// samples.
var errThinTail = errors.New("percentile refused: fewer than ten samples beyond it")

// Quantile is an order statistic with the sample it came from.
type Quantile struct {
	Value float64
	N     int // sample count
	Tail  int // samples strictly beyond the chosen rank
}

// quantileOf returns the nearest-rank p-quantile of sorted (ascending):
// the value at rank ceil(p·n). It is refused with errThinTail when fewer
// than minTail samples rank above it.
func quantileOf(sorted []float64, p float64) (Quantile, error) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 1 {
		return Quantile{N: n}, fmt.Errorf("quantile %.3g of %d samples: %w", p, n, errThinTail)
	}
	k := int(math.Ceil(p * float64(n)))
	q := Quantile{Value: sorted[k-1], N: n, Tail: n - k}
	if q.Tail < minTail {
		return q, fmt.Errorf("p%g of %d samples: %w", p*100, n, errThinTail)
	}
	return q, nil
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

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

// cpuSeconds is the process's user+system CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuTicks is the host-wide CPU time split /proc/stat reports on its
// aggregate "cpu" line, in clock ticks.
type cpuTicks struct {
	Steal, Total uint64
}

// readCPUTicks parses the aggregate line of a /proc/stat file.
func readCPUTicks(path string) (cpuTicks, error) {
	f, err := os.Open(path)
	if err != nil {
		return cpuTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already inside user, so only the first eight sum.
		for i, s := range fields[1:] {
			if i >= 8 {
				break
			}
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("%s: field %d: %w", path, i+1, err)
			}
			t.Total += v
			if i == 7 {
				t.Steal = v
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("%s: no aggregate cpu line", path)
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two readings (0 when nothing elapsed).
func stealFrac(a, b cpuTicks) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// Runtime counters read through runtime/metrics, which needs no
// stop-the-world.
const (
	rmHeapLive = "/gc/heap/live:bytes"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmAllocs   = "/gc/heap/allocs:objects"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmIdleCPU  = "/cpu/classes/idle:cpu-seconds"
)

// runtimeStats is one reading of the runtime counters the benchmark
// reports per op.
type runtimeStats struct {
	Allocs  uint64
	GCCPU   float64
	BusyCPU float64 // total minus idle
}

// runtimeReader reads runtimeStats into samples it owns, so a reading
// allocates nothing that would be charged to the ops it brackets.
type runtimeReader []metrics.Sample

func newRuntimeReader() runtimeReader {
	return runtimeReader{{Name: rmAllocs}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmIdleCPU}}
}

func (s runtimeReader) read() runtimeStats {
	metrics.Read(s)
	return runtimeStats{
		Allocs:  s[0].Value.Uint64(),
		GCCPU:   s[1].Value.Float64(),
		BusyCPU: s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// liveHeap collects garbage twice and returns the bytes found live. The
// second collection frees what sync.Pools still held from the first, so
// the reading does not depend on how many pooled buffers were idle.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: rmHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls, on its own goroutine, the live heap each garbage
// collection marked, keeping one reading per collection. Live bytes do
// not depend on how far the collector lets garbage pile up, which scales
// with everything live, the harness's inputs included.
type heapSampler struct {
	stop, done chan struct{}
	live       []uint64
}

// newHeapSampler reserves room for the readings of cycles collections, so
// a sampler made before a heap baseline adds nothing after it.
func newHeapSampler(cycles int) *heapSampler {
	return &heapSampler{live: make([]uint64, 0, cycles)}
}

// start begins polling every interval; Stop ends it.
func (h *heapSampler) start(every time.Duration) {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: rmGCCycles}, {Name: rmHeapLive}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				h.live = append(h.live, s[1].Value.Uint64())
			}
		}
	}()
}

// Stop ends sampling, waits for the poller to exit, and returns the live
// heap, in bytes, of every collection seen since start followed by
// liveHeap's reading at the stop.
func (h *heapSampler) Stop() []uint64 {
	close(h.stop)
	<-h.done
	return append(h.live, liveHeap())
}
