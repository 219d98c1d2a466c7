package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/netsim"
	"xmovie/internal/spa"
)

// toy returns options that run a workload at toy size.
func toy(t *testing.T) options {
	return options{seed: 7, measure: time.Second, warmup: 200 * time.Millisecond, setups: 2, dir: t.TempDir(), toy: true}
}

func TestWorkloadsAtToySize(t *testing.T) {
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, w, traced := name, w, traced
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				out, err := measure(name, w.run, toy(t), tr, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				tl := out.tally
				if tl.attempted.Load() == 0 || tl.wrong.Load() != 0 {
					t.Fatalf("attempted %d, wrong %d: %v", tl.attempted.Load(), tl.wrong.Load(), tl.first)
				}
				for _, f := range tl.first {
					// The one failure the program is known to produce is
					// the directory mirror's first-touch race.
					if !strings.Contains(f, "directory") {
						t.Errorf("failure: %s", f)
					}
				}
				if !traced {
					return
				}
				spans := tr.snapshot()
				layers := layerMetrics(out, out, analyzeSpans(spans), replayCodecs(tr.wire), len(spans))
				if len(spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				if name == "stream" {
					if m, _ := layers.get("mtp.copy_sends"); m.Value != 0 {
						t.Errorf("traced stream sent %v frames on the copy path", m.Value)
					}
					if m, _ := layers.get("mtp.send_us_per_frame"); m.N == 0 {
						t.Error("traced stream recorded no frame sends")
					}
				}
			})
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The metrics a run prints must be exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	tr := newTracer()
	out, err := measure("stream", runStream, toy(t), tr, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	layers := layerMetrics(out, out, analyzeSpans(tr.snapshot()), replayCodecs(tr.wire), 0)
	check := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		units := make(map[string]string)
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run prints %d", kind, len(want), len(got))
		}
		for _, w := range want {
			u, ok := units[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is not printed", kind, w.Name)
			case u != w.Unit:
				t.Errorf("%s: %s printed in %s, declared in %s", kind, w.Name, u, w.Unit)
			}
		}
	}
	check("per_layer", b.PerLayer, layers.list)
	var e2e []metric
	for _, name := range gateNames {
		m, ok := out.report.get(name)
		if src, mapped := out.gate[name]; mapped {
			m, ok = out.report.get(src)
		}
		if !ok {
			t.Errorf("end_to_end: %s has no measurement on stream", name)
		}
		m.Name = name
		e2e = append(e2e, m)
	}
	check("end_to_end", b.EndToEnd, e2e)
}

// capabilities lists the optional interfaces v implements.
func capabilities(v any) []string {
	var caps []string
	add := func(ok bool, name string) {
		if ok {
			caps = append(caps, name)
		}
	}
	_, ok := v.(mtp.BatchSource)
	add(ok, "BatchSource")
	_, ok = v.(mtp.EdgeWaiter)
	add(ok, "EdgeWaiter")
	_, ok = v.(moviedb.WaitCanceler)
	add(ok, "WaitCanceler")
	_, ok = v.(moviedb.ResidentReporter)
	add(ok, "ResidentReporter")
	_, ok = v.(mtp.VecConn)
	add(ok, "VecConn")
	_, ok = v.(mtp.BatchConn)
	add(ok, "BatchConn")
	_, ok = v.(mtp.TryRecver)
	add(ok, "TryRecver")
	_, ok = v.(io.Closer)
	add(ok, "Closer")
	return caps
}

func sameCaps(t *testing.T, what string, inner, wrapped any) {
	t.Helper()
	a, b := strings.Join(capabilities(inner), ","), strings.Join(capabilities(wrapped), ",")
	if a != b {
		t.Errorf("%s: wrapped %T exposes [%s], %T exposes [%s]", what, inner, a, wrapped, b)
	}
}

// bareSource implements only moviedb.FrameSource.
type bareSource struct{}

func (bareSource) Len() int64             { return 0 }
func (bareSource) Pos() int64             { return 0 }
func (bareSource) Next() ([]byte, error)  { return nil, io.EOF }
func (bareSource) SeekTo(pos int64) error { return nil }
func (bareSource) Close() error           { return nil }

// bareConn implements only mtp.PacketConn.
type bareConn struct{}

func (bareConn) Send([]byte) error     { return nil }
func (bareConn) Recv() ([]byte, error) { return nil, io.EOF }

// Each decorator exposes exactly the optional interfaces of what it wraps,
// so a traced run keeps the program's batching, vectored sends, live-edge
// pacing and cleanup paths.
func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	cfg := moviedb.SynthConfig{Name: "m", Frames: 40, FrameRate: 25, FrameSize: 64}
	disk, err := moviedb.OpenDiskStore(t.TempDir(), moviedb.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := moviedb.NewMemStore()
	for _, s := range []moviedb.Store{disk, mem} {
		if err := s.Create(moviedb.SynthesizeLazy(cfg)); err != nil {
			t.Fatal(err)
		}
		m, err := s.Get("m")
		if err != nil {
			t.Fatal(err)
		}
		src := m.Open()
		sameCaps(t, "store source", src, tr.source(src, 0, 0))
		src.Close()
	}
	sources := []moviedb.FrameSource{
		moviedb.NewSynthContent(cfg).Open(),
		moviedb.SliceContent{[]byte("x")}.Open(),
		bareSource{},
	}
	for _, src := range sources {
		sameCaps(t, "source", src, tr.source(src, 0, 0))
	}
	sameCaps(t, "store", moviedb.NewShardedStore(0), tr.store(moviedb.NewShardedStore(0), 0))
	sameCaps(t, "store", mem, tr.store(mem, 0))

	lis, err := mtp.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	udp, err := mtp.DialUDP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	sim := spa.NewSimNet()
	defer sim.Close()
	if _, err := sim.Listen("v", netsim.Config{}); err != nil {
		t.Fatal(err)
	}
	ep, err := sim.DialStream("v")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []mtp.PacketConn{udp, lis, ep, bareConn{}} {
		sameCaps(t, "sender conn", c, tr.packetConn(c, 0, false))
		sameCaps(t, "receiver conn", c, tr.receiverConn(c, 0))
	}
	dialed, err := tr.dialer(spa.UDPDialer{}, 0).DialStream(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sameCaps(t, "dialed conn", udp, dialed)
	dialed.(io.Closer).Close()
}

func TestQuantiles(t *testing.T) {
	var fast, slow hist
	for i := 0; i < 3000; i++ {
		fast.add(1000) // 1 µs, three times as many samples
	}
	for i := 0; i < 1000; i++ {
		slow.add(5000)
	}
	near := func(got, want float64) bool { return got >= want && got < want*1.01 }
	if p, ok := quantileOf([]*hist{&fast, &slow}, 0.6); !ok || !near(p, 5) {
		t.Errorf("p60 of an equal-weight mixture = %v (%v), want 5", p, ok)
	}
	if p, _ := quantileOf([]*hist{&fast, &slow}, 0.4); !near(p, 1) {
		t.Errorf("p40 = %v, want 1", p)
	}
	var h hist
	for i := 1; i <= 999; i++ {
		h.add(int64(i) * 1000)
	}
	if p, _ := h.quantile(0.5); p < 495 || p > 505 {
		t.Errorf("p50 of 1..999 µs = %v", p)
	}
	if _, ok := h.quantile(0.99); ok {
		t.Error("p99 of 999 samples reported, want at least 10 beyond it")
	}
	h.add(1000)
	if _, ok := h.quantile(0.99); !ok {
		t.Error("p99 of 1000 samples not reported")
	}
}
