package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// samples is a latency or size distribution recorded in a buffer sized
// before the heap baseline is read, so recording does not count towards
// heap_mb. Samples past the capacity are counted but not kept.
type samples struct {
	vals     []float64
	overflow int
}

func newSamples(capacity int) *samples { return &samples{vals: make([]float64, 0, capacity)} }

func (s *samples) add(v float64) {
	if len(s.vals) == cap(s.vals) {
		s.overflow++
		return
	}
	s.vals = append(s.vals, v)
}

func (s *samples) n() int { return len(s.vals) }

// quantile returns the nearest-rank q-quantile (NaN when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(s.vals)
	slices.Sort(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func (s *samples) max() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	return slices.Max(s.vals)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
