package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	q, err := quantileOf(ramp(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	if q.Value != 990 || q.N != 1000 || q.Tail != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, tail 10", q)
	}
	q, err = quantileOf(ramp(20), 0.5)
	if err != nil || q.Value != 10 || q.Tail != 10 {
		t.Fatalf("p50 of 1..20 = %+v, %v; want 10 with tail 10", q, err)
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{999, 0.99}, {19, 0.5}, {0, 0.5}, {50, 0.9}} {
		if q, err := quantileOf(ramp(c.n), c.p); !errors.Is(err, errThinTail) {
			t.Errorf("p%g of %d samples = %+v, %v; want errThinTail", c.p*100, c.n, q, err)
		}
	}
}

func TestReadCPUTicksAndSteal(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, err := readCPUTicks(write("a", "cpu  100 0 50 800 10 0 0 40 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Steal != 40 || a.Total != 1000 {
		t.Fatalf("ticks = %+v, want steal 40 of 1000 (guest time excluded)", a)
	}
	b, err := readCPUTicks(write("b", "cpu  200 0 100 1500 10 0 0 190 9 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stealFrac(a, b); got != 0.15 {
		t.Fatalf("steal frac = %v, want 150/1000", got)
	}
	if got := stealFrac(b, b); got != 0 {
		t.Fatalf("steal frac with no time passed = %v, want 0", got)
	}
	if _, err := readCPUTicks(write("c", "intr 5\n")); err == nil {
		t.Fatal("a file without an aggregate cpu line parsed")
	}
}

func TestCPUSecondsCountsWork(t *testing.T) {
	c0 := cpuSeconds()
	for deadline := time.Now().Add(5 * time.Second); cpuSeconds()-c0 < 0.02; {
		if time.Now().After(deadline) {
			t.Fatalf("5 s of spinning charged %.3f s of CPU", cpuSeconds()-c0)
		}
	}
}

var heapSink []byte

func TestHeapSamplerReadsEachCollection(t *testing.T) {
	h := newHeapSampler(16)
	h.start(time.Millisecond)
	heapSink = make([]byte, 64<<20)
	for i := range heapSink {
		heapSink[i] = byte(i)
	}
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	live := h.Stop()
	heapSink = nil
	if len(live) < 2 {
		t.Fatalf("%d readings; want the forced collection and the final one", len(live))
	}
	for i, v := range live {
		if v < 64<<20 {
			t.Fatalf("reading %d: %d B live while holding 64 MiB", i, v)
		}
	}
}
