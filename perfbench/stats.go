package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spans is the benchmark's own tracer: it records the duration of every
// call the benchmark makes into a layer, by span name, in memory. A nil or
// disabled recorder records nothing and costs one branch per call site.
type spans struct {
	on atomic.Bool
	mu sync.Mutex
	d  map[string][]float64 // span name → durations, ms
}

func newSpans() *spans { return &spans{d: map[string][]float64{}} }

func (s *spans) enabled() bool { return s != nil && s.on.Load() }

// start opens a span; the returned func closes it.
func (s *spans) start(name string) func() {
	if !s.enabled() {
		return func() {}
	}
	t := time.Now()
	return func() { s.add(name, time.Since(t)) }
}

func (s *spans) add(name string, d time.Duration) {
	if !s.enabled() {
		return
	}
	s.mu.Lock()
	s.d[name] = append(s.d[name], ms(d))
	s.mu.Unlock()
}

func (s *spans) p50(name string) float64 { return median(s.d[name]) }

func (s *spans) sum(name string) float64 {
	var t float64
	for _, x := range s.d[name] {
		t += x
	}
	return t
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}
