package main

import (
	"fmt"
	"math"
	"sort"

	"locble/internal/obs"
)

// The traced run reads the timers and counters the program already
// keeps: it resolves their handles once, by name, and reads them between
// ops with plain atomic loads. A name the program no longer registers is
// an error, never a silent zero.

func registered(reg *obs.Registry, name string) error {
	names := reg.Names()
	if i := sort.SearchStrings(names, name); i < len(names) && names[i] == name {
		return nil
	}
	return fmt.Errorf("metric %q is not registered", name)
}

func histHandle(reg *obs.Registry, name string) (*obs.Histogram, error) {
	if err := registered(reg, name); err != nil {
		return nil, err
	}
	return reg.Histogram(name, nil), nil
}

func counterHandle(reg *obs.Registry, name string) (*obs.Counter, error) {
	if err := registered(reg, name); err != nil {
		return nil, err
	}
	return reg.Counter(name), nil
}

// timerReading is a timer histogram's running total and count.
type timerReading struct {
	Sum   float64 // seconds
	Count uint64
}

func readTimer(h *obs.Histogram) timerReading { return timerReading{Sum: h.Sum(), Count: h.Count()} }

func (a timerReading) sub(b timerReading) timerReading {
	return timerReading{Sum: a.Sum - b.Sum, Count: a.Count - b.Count}
}

// histDelta subtracts two snapshots of one histogram bucket by bucket.
func histDelta(a, b obs.HistogramValue) obs.HistogramValue {
	out := obs.HistogramValue{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range a.Buckets {
		c := a.Buckets[i].Count
		if i < len(b.Buckets) {
			c -= b.Buckets[i].Count
		}
		out.Buckets = append(out.Buckets, obs.Bucket{UpperBound: a.Buckets[i].UpperBound, Count: c})
	}
	return out
}

// bucketQuantile is the upper bound of the bucket holding the nearest-
// rank p-quantile; the overflow bucket reports the largest finite bound.
func bucketQuantile(h obs.HistogramValue, p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.Count)))
	var seen uint64
	last := 0.0
	for _, b := range h.Buckets {
		if !math.IsInf(b.UpperBound, 1) {
			last = b.UpperBound
		}
		seen += b.Count
		if seen >= rank {
			return last
		}
	}
	return last
}
