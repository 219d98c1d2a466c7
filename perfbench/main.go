// Command perfbench is the repository's benchmark. It runs one workload
// against in-process MCAM servers built with the same constructors mcamd
// and cmd/mcamload use, checks every output, and prints a report followed
// by one JSON line with the run's metrics:
//
//	perfbench --workload catalog|churn|stream|all --seed N --seconds S --trace 0|1
//
// --workload all runs the three workloads in turn, each ending with its
// own JSON line.
// With --trace 0 the JSON carries the end-to-end metrics BENCHMARK.json
// gates. With --trace 1 the run is split in two halves of S/2 seconds: an
// untraced half and a traced half whose layer decorators record spans, and
// the JSON carries the per-layer metrics, the codec replay and the tracing
// overhead. A run that cannot produce trustworthy numbers (a harness error,
// a percentile without enough samples, the live recorder slipping behind
// its schedule) exits non-zero without a JSON line. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its runner and its set-up count.
var workloads = map[string]struct {
	run    func(options, *tracer) (*outcome, error)
	setups int
}{
	"catalog": {runCatalog, 21},
	"churn":   {runChurn, 21},
	"stream":  {runStream, 3},
}

// scratchDir, relative to the directory the benchmark runs in, holds
// everything a run writes: the stream workload's disk catalogue and the
// span files of traced runs. run.sh builds into it too.
const scratchDir = ".bench_build"

// order is the order --workload all runs the workloads in.
var order = []string{"catalog", "churn", "stream"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: catalog, churn, stream, or all of them in turn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 20, "length of the measured interval")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = order
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
			fmt.Fprintf(stderr, "perfbench: want --workload catalog|churn|stream|all, --seconds >= 1 and --trace 0|1\n")
			return 2
		}
	}
	status := 0
	for _, n := range names {
		o := options{
			seed:    *seed,
			measure: time.Duration(*seconds) * time.Second,
			setups:  workloads[n].setups,
			dir:     filepath.Join(scratchDir, "data"),
		}
		if err := runWorkload(n, o, *traced == 1, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: invalid run: %v\n", n, err)
			status = 1
		}
	}
	return status
}

// runWorkload runs one workload and prints its report and JSON line.
func runWorkload(name string, o options, traced bool, stdout io.Writer) error {
	fn := workloads[name].run
	var metrics []metric
	var out *outcome
	var err error
	if !traced {
		o.warmup = warmupFor(o.measure)
		out, err = measure(name, fn, o, nil, stdout)
		if err == nil {
			metrics, err = out.gated()
		}
	} else {
		out, metrics, err = traceRun(name, fn, o, stdout)
	}
	if err != nil {
		return err
	}
	line, err := resultJSON(out, metrics)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	return nil
}

// warmupFor is the unrecorded load run before a measured interval, so
// caches, pools and the directory mirror reach steady state first.
func warmupFor(measure time.Duration) time.Duration {
	if w := measure / 10; w < time.Second {
		return w
	}
	return time.Second
}

// measure runs one workload, checks that teardown returned every goroutine
// and prints the workload's report.
func measure(name string, fn func(options, *tracer) (*outcome, error), o options, tr *tracer, w io.Writer) (*outcome, error) {
	baseline := runtime.NumGoroutine()
	out, err := fn(o, tr)
	if err != nil {
		return nil, err
	}
	n, ok := awaitGoroutines(baseline)
	out.tally.check(ok, "%d goroutines after teardown, %d before set-up", n, baseline)
	out.addCommon()
	printReport(w, out, tr != nil)
	return out, nil
}

// traceRun measures an untraced and a traced half, then derives the
// per-layer metrics from the traced half's spans.
func traceRun(name string, fn func(options, *tracer) (*outcome, error), o options, w io.Writer) (*outcome, []metric, error) {
	o.measure /= 2
	o.warmup = warmupFor(o.measure)
	base, err := measure(name, fn, o, nil, w)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	out, err := measure(name, fn, o, tr, w)
	if err != nil {
		return nil, nil, err
	}
	spans := tr.snapshot()
	a := analyzeSpans(spans)
	codec := replayCodecs(tr.wire)
	layers := layerMetrics(out, base, a, codec, len(spans))
	if name == "stream" {
		// The traced stream must still take the zero-copy path: the
		// decorators expose every optional interface of what they wrap.
		cs, _ := layers.get("mtp.copy_sends")
		out.tally.check(cs.Value == 0, "%v frames fell back to the copying send path", cs.Value)
	}
	spanDir := filepath.Join(scratchDir, "spans")
	// One file per workload: the latest traced run replaces the previous.
	path := filepath.Join(spanDir, name+".csv.gz")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeSpans(path, spans, a.replyWaits); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "\n%s per-layer attribution (traced half, mean per op):\n", name)
	for _, line := range a.attribution() {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "codec replay of %d wire messages: session %.0f ns, presentation %.0f ns, mcam decode %.0f ns, encode %.0f ns\n",
		len(tr.wire), codec.sessionNs, codec.presentationNs, codec.mcamDecodeNs, codec.mcamEncodeNs)
	fmt.Fprintf(w, "spans: %d kept, %d dropped over the cap, written to %s\n", len(spans), tr.dropped, path)
	fmt.Fprintf(w, "\n%s per-layer metrics:\n", name)
	for _, m := range layers.list {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	return out, layers.list, nil
}

// printReport prints a run's end-to-end metrics with units and sample
// counts, the failures it saw and its notes.
func printReport(w io.Writer, out *outcome, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	t := out.tally
	fmt.Fprintf(w, "%s (%s): %d attempted, %d failed, %d with wrong output\n",
		out.workload, mode, t.attempted.Load(), t.failed.Load(), t.wrong.Load())
	for _, m := range out.report.list {
		v := fmt.Sprintf("%14.4f", m.Value)
		if !m.OK {
			v = fmt.Sprintf("%14s", "n/a")
		}
		fmt.Fprintf(w, "  %-22s %s %-6s n=%d\n", m.Name, v, m.Unit, m.N)
	}
	for _, f := range t.first {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  public counters over the interval: cache hits %s, vectored sends %d, copy sends %d, batched frames %s\n",
		fmtRatio(out.snap.cache.Hits, out.snap.cache.Hits+out.snap.cache.Misses),
		out.snap.delivery.VecSends, out.snap.delivery.CopySends,
		fmtRatio(out.snap.delivery.BatchFrames, out.snap.delivery.VecSends))
}

// resultJSON renders the final line: correctness, counts and metrics.
func resultJSON(out *outcome, metrics []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(metrics))
	for _, m := range metrics {
		if _, dup := vals[m.Name]; dup {
			return "", errors.New("duplicate metric " + m.Name)
		}
		vals[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.tally.wrong.Load() == 0, out.tally.attempted.Load(), out.tally.failed.Load(), vals})
	return string(b), err
}
