package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// Histogram layout: values below 2^subBits ns are exact; above, each power
// of two splits into 2^subBits buckets, a relative resolution of 1.6%.
const (
	subBits  = 6
	subCount = 1 << subBits
	nBuckets = (64 - subBits) * subCount
)

// hist is a fixed-size log-linear histogram of durations in nanoseconds.
// Load goroutines each own one, so recording neither allocates nor grows
// the heap the benchmark reports.
type hist struct {
	counts [nBuckets]int64
	n      int64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - subCount
}

// bucketRange returns bucket i's lower bound and width in ns.
func bucketRange(i int) (low, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	e := i>>subBits - 1
	m := int64(i&(subCount-1) + subCount)
	return float64(m << e), float64(int64(1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in microseconds, interpolated within its
// bucket, and whether at least minTail samples lie beyond it.
func (h *hist) quantile(q float64) (float64, bool) {
	return quantileOf([]*hist{h}, q)
}

// quantileOf returns the q-quantile of the equal-weight mixture of hs, so
// a population that completed more samples in the same interval does not
// outweigh another, and whether each holds minTail samples beyond it.
func quantileOf(hs []*hist, q float64) (float64, bool) {
	ok := true
	for _, h := range hs {
		if h.n == 0 {
			return 0, false
		}
		ok = ok && float64(h.n)*(1-q) >= minTail
	}
	cum := 0.0
	for i := 0; i < nBuckets; i++ {
		w := 0.0
		for _, h := range hs {
			w += float64(h.counts[i]) / float64(h.n) / float64(len(hs))
		}
		if w > 0 && cum+w >= q {
			low, width := bucketRange(i)
			return (low + width*(q-cum)/w) / 1e3, ok
		}
		cum += w
	}
	low, width := bucketRange(nBuckets - 1)
	return (low + width) / 1e3, ok
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the bytes of live heap
// objects in MiB, less the benchmark's own histograms (hists of them).
// It first waits for the goroutine count to settle, so goroutines still
// unwinding from the last ops do not hold their buffers, then collects
// twice: the first collection only moves sync.Pool contents to the pools'
// victim caches, the second frees them, so idle pooled buffers do not
// count as retained state.
func liveHeapMB(hists int) float64 {
	settle()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-int64(hists)*int64(unsafe.Sizeof(hist{}))) / (1 << 20)
}

// stackMean adds name_gm_p50_us, name_gm_p90_us and name_gm_p99_us: the
// geometric mean over the two control stacks of name_generated_* and
// name_handcoded_*,
// which must already be in the set. With both stacks' ops in one
// population the median falls in the gap between the two stacks' modes,
// where it jumps with every shift in their tails; a mean of the stacks'
// own percentiles moves with each stack's latency instead.
func (m *metricSet) stackMean(name string) {
	for _, rq := range reportedQuantiles {
		suffix := rq.suffix
		g, _ := m.get(name + "_generated" + suffix)
		h, _ := m.get(name + "_handcoded" + suffix)
		m.add(name+"_gm"+suffix, math.Sqrt(g.Value*h.Value), "us", g.N+h.N, g.OK && h.OK)
	}
}

// pooled sums several populations' window histograms window by window.
func pooled(pops [][]hist) []hist {
	out := make([]hist, nWindows)
	for _, p := range pops {
		for w := range p {
			out[w].merge(&p[w])
		}
	}
	return out
}

// settle waits, for at most two seconds, until the goroutine count has not
// changed for 100 ms.
func settle() {
	deadline := time.Now().Add(2 * time.Second)
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 100*time.Millisecond && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
}

// merged returns the sum of a population's window histograms.
func merged(hs ...[]hist) *hist {
	var out hist
	for _, h := range hs {
		for i := range h {
			out.merge(&h[i])
		}
	}
	return &out
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the value
	// OK is false when the value could not be measured, such as a
	// percentile without minTail samples beyond it.
	OK bool
}

// metricSet collects a run's metrics in report order.
type metricSet struct {
	list []metric
}

func (m *metricSet) add(name string, value float64, unit string, n int, ok bool) {
	m.list = append(m.list, metric{Name: name, Value: value, Unit: unit, N: n, OK: ok})
}

// get returns the named metric.
func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// reportedQuantiles are the percentiles the report gives each timing.
var reportedQuantiles = []struct {
	suffix string
	q      float64
}{{"_p50_us", 0.50}, {"_p90_us", 0.90}, {"_p99_us", 0.99}}

// percentiles adds name_p50_us, name_p90_us and name_p99_us for a
// population over the whole interval.
func (m *metricSet) percentiles(name string, h *hist) {
	for _, rq := range reportedQuantiles {
		v, ok := h.quantile(rq.q)
		m.add(name+rq.suffix, v, "us", int(h.n), ok)
	}
}

// windowed adds the same percentiles as medians over the measured
// windows of the equal-weight mixture of pops (see windowedQuantile).
func (m *metricSet) windowed(name string, pops ...[]hist) {
	n := merged(pops...).n
	for _, rq := range reportedQuantiles {
		v, ok := windowedQuantile(rq.q, pops...)
		m.add(name+rq.suffix, v, "us", int(n), ok)
	}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fmtRatio prints a ratio together with its base.
func fmtRatio(num, den int64) string {
	return fmt.Sprintf("%.4f (%d / %d)", ratio(float64(num), float64(den)), num, den)
}
