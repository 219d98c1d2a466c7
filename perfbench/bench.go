package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// options are the settings shared by every workload run.
type options struct {
	seed int64
	// measure is the measured interval; warmup runs the same load first
	// without recording it.
	measure, warmup time.Duration
	// setups is how many times the rig is built; setup_s is their median
	// and the last one is measured.
	setups int
	// dir holds the stream workload's disk catalogue.
	dir string
	// toy shrinks the workload for the benchmark's own tests.
	toy bool
}

// Gated end-to-end metrics, in BENCHMARK.json order. Each workload maps
// the generic names onto its own measurements through outcome.gate.
var gateNames = []string{
	"setup_s", "success_ratio", "throughput_per_s", "cpu_us_per_item",
	"latency_p50_us", "latency_p90_us", "service_p50_us", "service_p90_us",
}

// tally counts attempted and failed work items across load goroutines and
// keeps the first few failure descriptions for the report. A failure is
// either a failed operation (transport error, timeout, non-success
// status) or a wrong output (a reply or frame that fails its content
// check); only the latter makes a run's output incorrect.
type tally struct {
	attempted, failed, wrong atomic.Int64

	mu    sync.Mutex
	first []string
}

func (t *tally) ok(n int64) { t.attempted.Add(n) }

// fail counts n failed items out of n attempted.
func (t *tally) fail(n int64, format string, args ...any) {
	t.attempted.Add(n)
	t.failed.Add(n)
	t.mu.Lock()
	if len(t.first) < 5 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// mismatch counts n items whose output failed its content check.
func (t *tally) mismatch(n int64, format string, args ...any) {
	t.wrong.Add(n)
	t.fail(n, format, args...)
}

// check counts one item whose output is correct when cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok(1)
		return
	}
	t.mismatch(1, format, args...)
}

// outcome is one measured run of a workload.
type outcome struct {
	workload string
	tally    *tally
	// report holds the workload's end-to-end metrics under the names
	// perfbench/README.md defines; gate maps each gated name to one of
	// them.
	report metricSet
	gate   map[string]string
	notes  []string
	// snap are the public counter snapshots taken over the measured
	// interval.
	snap counters
	// setupS is the median set-up time, heapMB the live heap at the end
	// of the measured interval and delivery the share of requested frames
	// delivered (1 for the control workloads).
	setupS, heapMB, delivery float64
	setups                   int
}

// gated returns the BENCHMARK.json end-to-end metrics.
func (o *outcome) gated() ([]metric, error) {
	var out []metric
	for _, name := range gateNames {
		src := name
		if s, ok := o.gate[name]; ok {
			src = s
		}
		m, ok := o.report.get(src)
		if !ok || !m.OK {
			return nil, fmt.Errorf("%s: %s (%s) was not measured: %d samples", o.workload, name, src, m.N)
		}
		m.Name = name
		out = append(out, m)
	}
	return out, nil
}

// addCommon adds the metrics every workload reports; call it once every
// check of the run has been counted. success_ratio is the share of
// requested work that was both delivered and correct: 1 - fail_ratio,
// times the delivery ratio on the stream workload.
func (o *outcome) addCommon() {
	att, failed := o.tally.attempted.Load(), o.tally.failed.Load()
	fail := ratio(float64(failed), float64(att))
	list := append([]metric(nil), o.report.list...)
	o.report.list = nil
	o.report.add("setup_s", o.setupS, "s", o.setups, true)
	o.report.add("fail_ratio", fail, "ratio", int(att), att > 0)
	o.report.add("success_ratio", (1-fail)*o.delivery, "ratio", int(att), att > 0)
	o.report.add("live_heap_mb", o.heapMB, "MiB", 1, true)
	o.report.list = append(o.report.list, list...)
}

// closer is a rig that can be torn down.
type closer interface{ close() error }

// buildRepeatedly builds a rig n times, tearing down every build but the
// last, and returns the last with the median build time in seconds.
func buildRepeatedly[R closer](n int, build func() (R, error)) (R, float64, error) {
	var last R
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		r, err := build()
		if err != nil {
			return last, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			if err := r.close(); err != nil {
				return last, 0, fmt.Errorf("teardown after setup: %w", err)
			}
			continue
		}
		last = r
	}
	sort.Float64s(times)
	return last, times[len(times)/2], nil
}

// awaitGoroutines waits until the goroutine count is back to baseline and
// reports whether it got there.
func awaitGoroutines(baseline int) (int, bool) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// zipfS is the skew of every workload's movie popularity.
const zipfS = 1.1

// nWindows is how many equal windows a measured interval is split into.
const nWindows = 10

// meter runs the measured interval as nWindows equal windows. Load
// goroutines ask for the current window when an item starts: -1 during
// warm-up, 0..nWindows-1 while measuring, nWindows once measurement has
// ended. Windowed metrics are medians over the windows, so a few seconds of
// interference from outside the process do not move a run's result.
type meter struct {
	cur  atomic.Int32
	wall [nWindows]time.Duration
	cpu  [nWindows]time.Duration // process user+sys CPU
}

func newMeter() *meter {
	m := &meter{}
	m.cur.Store(-1)
	return m
}

func (m *meter) window() int { return int(m.cur.Load()) }

// run measures for total and returns once the last window has closed.
func (m *meter) run(total time.Duration) {
	start := time.Now()
	prev, prevCPU := start, cpuTime()
	for w := 0; w < nWindows; w++ {
		m.cur.Store(int32(w))
		time.Sleep(time.Until(start.Add(total * time.Duration(w+1) / nWindows)))
		now, c := time.Now(), cpuTime()
		m.wall[w], m.cpu[w] = now.Sub(prev), c-prevCPU
		prev, prevCPU = now, c
	}
	m.cur.Store(nWindows)
}

// totals returns the whole interval's wall and CPU time.
func (m *meter) totals() (wall, cpu time.Duration) {
	for w := range m.wall {
		wall += m.wall[w]
		cpu += m.cpu[w]
	}
	return wall, cpu
}

// rate is the median over the windows of items per second.
func (m *meter) rate(items *[nWindows]int64) float64 {
	return medianOver(func(w int) float64 { return float64(items[w]) / m.wall[w].Seconds() })
}

// cpuPer is the median over the windows of CPU microseconds per item.
func (m *meter) cpuPer(items *[nWindows]int64) float64 {
	return medianOver(func(w int) float64 { return ratio(float64(m.cpu[w].Microseconds()), float64(items[w])) })
}

// medianOver returns the median of f over the windows.
func medianOver(f func(w int) float64) float64 {
	v := make([]float64, nWindows)
	for w := range v {
		v[w] = f(w)
	}
	sort.Float64s(v)
	return (v[(nWindows-1)/2] + v[nWindows/2]) / 2
}

// windowedQuantile is the median over the windows of each window's
// q-quantile of the equal-weight mixture of one histogram per population;
// it is reported only if every window has enough samples beyond q.
func windowedQuantile(q float64, pops ...[]hist) (float64, bool) {
	ok := true
	v := medianOver(func(w int) float64 {
		hs := make([]*hist, len(pops))
		for i := range pops {
			hs[i] = &pops[i][w]
		}
		x, wok := quantileOf(hs, q)
		ok = ok && wok
		return x
	})
	return v, ok
}
