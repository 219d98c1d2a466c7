package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmovie/internal/core"
	"xmovie/internal/directory"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/transport"
)

// The catalog workload: two long-lived associations over TPKT/TCP, one
// per control stack (lane 0 generated, lane 1 hand-coded), each a closed
// loop of Zipf-skewed QueryAttributes/Select plus ModifyAttributes and
// occasional ListMovies against one shared catalogue and directory.

// Catalog op mix: cumulative shares of a uniform draw.
const (
	catListShare   = 0.005
	catModifyShare = catListShare + 0.145
	catSelectShare = catModifyShare + 0.425
)

// noteAttr is the attribute ModifyAttributes writes; its value names the
// movie, the writing lane and the lane's write sequence number.
const noteAttr = "note"

// dirBase is the directory subtree the servers mirror movies into, as
// cmd/mcamload configures it.
var dirBase = directory.MustParseDN("c=DE/o=xmovie")

// seededMovie is what the catalogue seeded under one name.
type seededMovie struct {
	name   string
	frames int64
	rate   int64
}

// seedCatalogue creates n lazily synthesized movies whose lengths and
// rates derive from seed.
func seedCatalogue(store moviedb.Store, seed int64, n int) ([]seededMovie, error) {
	rng := rand.New(rand.NewSource(seed))
	rates := []int{24, 25, 30}
	movies := make([]seededMovie, n)
	for i := range movies {
		m := seededMovie{
			name:   fmt.Sprintf("cat-%04d", i),
			frames: int64(50 + rng.Intn(5000)),
			rate:   int64(rates[rng.Intn(len(rates))]),
		}
		movies[i] = m
		err := store.Create(moviedb.SynthesizeLazy(moviedb.SynthConfig{
			Name: m.name, Frames: int(m.frames), FrameRate: int(m.rate), FrameSize: 64,
		}))
		if err != nil {
			return nil, err
		}
	}
	return movies, nil
}

// laneStacks assigns each catalog lane its control stack.
var laneStacks = []core.StackKind{core.StackGenerated, core.StackHandcoded}

type catalogRig struct {
	movies  []seededMovie
	names   []string // sorted catalogue, what ListMovies must return
	servers []*core.Server
	clients []*core.Client
}

// buildCatalog starts one TCP server per stack over a shared store and
// directory, and dials one association to each.
func buildCatalog(o options, tr *tracer) (*catalogRig, error) {
	n := 1000
	if o.toy {
		n = 60
	}
	store := moviedb.NewShardedStore(0)
	movies, err := seedCatalogue(store, o.seed, n)
	if err != nil {
		return nil, err
	}
	r := &catalogRig{movies: movies}
	for _, m := range movies {
		r.names = append(r.names, m.name)
	}
	sort.Strings(r.names)
	dsa := directory.NewDSA("bench", dirBase)
	for lane, stack := range laneStacks {
		env := &mcam.ServerEnv{
			Store:   tr.store(store, lane),
			DUA:     directory.NewDUA(tr.agent(dsa, lane)),
			DirBase: dirBase,
		}
		srv, err := core.NewServer(core.ServerConfig{Addr: "127.0.0.1:0", Stack: stack, Env: env})
		if err != nil {
			r.close()
			return nil, err
		}
		r.servers = append(r.servers, srv)
		tok := tr.beginOp(lane)
		conn, err := transport.Dial(srv.Addr())
		var c *core.Client
		if err == nil {
			c, err = core.NewClientConn(tr.conn(conn, lane), core.ClientConfig{Stack: stack, CallTimeout: callTimeout})
		}
		tr.endOp(lane, tok, opDial, uint8(stack), err != nil)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial %s: %w", stack, err)
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// callTimeout bounds one control op; a wedged association fails its op
// instead of hanging the run.
const callTimeout = 10 * time.Second

// close releases the associations and stops the servers, checking that
// every session was reaped.
func (r *catalogRig) close() error {
	var first error
	for _, c := range r.clients {
		if err := c.Close(); err != nil && first == nil {
			first = fmt.Errorf("release: %w", err)
		}
	}
	if err := awaitReaped(r.servers); err != nil && first == nil {
		first = err
	}
	for _, s := range r.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// awaitReaped waits until no server reports an active session.
func awaitReaped(servers []*core.Server) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range servers {
		for s.Observe().Sessions.Active != 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d sessions still active after release", s.Observe().Sessions.Active)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// call runs one timed control op, tracing it as an op of lane.
func call(tr *tracer, lane int, stack core.StackKind, c *core.Client, req *mcam.Request) (*mcam.Response, time.Duration, error) {
	tok := tr.beginOp(lane)
	start := time.Now()
	resp, err := c.Call(req)
	d := time.Since(start)
	tr.endOp(lane, tok, int(req.Op), uint8(stack), err != nil || !resp.OK())
	return resp, d, err
}

// catalogLane is one closed-loop association's state.
type catalogLane struct {
	lane int
	rig  *catalogRig
	rng  *rand.Rand
	zipf *rand.Zipf
	// issued[l] counts the ModifyAttributes lane l has issued; a note
	// value is genuine only if its sequence number is below it.
	issued []atomic.Int64
	lat    []hist // per window
}

func (l *catalogLane) run(m *meter, t *tally, tr *tracer) {
	c, stack := l.rig.clients[l.lane], laneStacks[l.lane]
	for {
		w := m.window()
		if w >= nWindows {
			return
		}
		movie := l.rig.movies[l.zipf.Uint64()]
		req, check := l.next(movie)
		resp, d, err := call(tr, l.lane, stack, c, req)
		// Every reply is checked, warm-up included: a failure counts
		// whenever it happens. Only timings are confined to the measured
		// windows.
		if w >= 0 {
			l.lat[w].add(int64(d))
		}
		switch {
		case err != nil:
			t.fail(1, "%s %s: %v", stack, req.Op, err)
		case !resp.OK():
			t.fail(1, "%s %s %s: %s (%s)", stack, req.Op, movie.name, resp.Status, resp.Diagnostic)
		default:
			if msg := check(resp); msg != "" {
				t.mismatch(1, "%s %s %s: %s", stack, req.Op, movie.name, msg)
			} else {
				t.ok(1)
			}
		}
	}
}

// next draws the lane's next request on movie m and the check its reply
// must pass (an empty message means it passed).
func (l *catalogLane) next(m seededMovie) (*mcam.Request, func(*mcam.Response) string) {
	lengthRate := func(resp *mcam.Response) string {
		if resp.Length != m.frames || resp.FrameRate != m.rate {
			return fmt.Sprintf("length %d rate %d, seeded %d at %d", resp.Length, resp.FrameRate, m.frames, m.rate)
		}
		return ""
	}
	switch x := l.rng.Float64(); {
	case x < catListShare:
		return &mcam.Request{Op: mcam.OpListMovies}, func(resp *mcam.Response) string {
			if !equalStrings(resp.Movies, l.rig.names) {
				return fmt.Sprintf("listed %d movies, catalogue has %d", len(resp.Movies), len(l.rig.names))
			}
			return ""
		}
	case x < catModifyShare:
		seq := l.issued[l.lane].Add(1) - 1
		note := fmt.Sprintf("%s|%d|%d", m.name, l.lane, seq)
		return &mcam.Request{Op: mcam.OpModifyAttributes, Movie: m.name,
			Attrs: []mcam.Attr{{Name: noteAttr, Value: note}}}, func(*mcam.Response) string { return "" }
	case x < catSelectShare:
		return &mcam.Request{Op: mcam.OpSelect, Movie: m.name}, lengthRate
	default:
		return &mcam.Request{Op: mcam.OpQueryAttributes, Movie: m.name}, func(resp *mcam.Response) string {
			if msg := lengthRate(resp); msg != "" {
				return msg
			}
			title := false
			for _, a := range resp.Attrs {
				switch a.Name {
				case moviedb.AttrTitle:
					title = a.Value == m.name
				case noteAttr:
					if !l.written(m.name, a.Value) {
						return fmt.Sprintf("note %q was never written to %s", a.Value, m.name)
					}
				}
			}
			if !title {
				return "title attribute missing"
			}
			return ""
		}
	}
}

// written reports whether note is a value some ModifyAttributes of movie
// issued.
func (l *catalogLane) written(movie, note string) bool {
	parts := strings.Split(note, "|")
	if len(parts) != 3 || parts[0] != movie {
		return false
	}
	lane, err1 := strconv.Atoi(parts[1])
	seq, err2 := strconv.ParseInt(parts[2], 10, 64)
	return err1 == nil && err2 == nil && lane >= 0 && lane < len(l.issued) && seq < l.issued[lane].Load()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runCatalog measures the catalog workload.
func runCatalog(o options, tr *tracer) (*outcome, error) {
	rig, setupS, err := buildRepeatedly(o.setups, func() (*catalogRig, error) { return buildCatalog(o, tr) })
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: "catalog", tally: &tally{}, setupS: setupS, setups: o.setups, delivery: 1}
	issued := make([]atomic.Int64, len(laneStacks))
	lanes := make([]*catalogLane, len(laneStacks))
	for i := range lanes {
		rng := rand.New(rand.NewSource(o.seed*7919 + int64(i)))
		lanes[i] = &catalogLane{lane: i, rig: rig, rng: rng, issued: issued, lat: make([]hist, nWindows),
			zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(rig.movies)-1))}
	}
	m := newMeter()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *catalogLane) {
			defer wg.Done()
			l.run(m, out.tally, tr)
		}(l)
	}
	time.Sleep(o.warmup)
	before := snapshotCounters(nil, nil)
	m.run(o.measure)
	wg.Wait()
	out.snap = snapshotCounters(nil, nil).sub(before)

	var ops [nWindows]int64
	var total int64
	for w := range ops {
		ops[w] = lanes[0].lat[w].n + lanes[1].lat[w].n
		total += ops[w]
	}
	out.heapMB = liveHeapMB(2 * nWindows)
	if err := rig.close(); err != nil {
		out.tally.mismatch(1, "teardown: %v", err)
	}
	n := int(total)
	out.report.add("ops_per_s", m.rate(&ops), "1/s", n, total > 0)
	out.report.windowed("op", lanes[0].lat, lanes[1].lat)
	out.report.add("cpu_us_per_op", m.cpuPer(&ops), "us", n, total > 0)
	for i, l := range lanes {
		out.report.windowed("op_"+laneStacks[i].String(), l.lat)
	}
	out.report.stackMean("op")
	out.gate = map[string]string{
		"throughput_per_s": "ops_per_s", "cpu_us_per_item": "cpu_us_per_op",
		"latency_p50_us": "op_gm_p50_us", "latency_p90_us": "op_gm_p90_us",
		"service_p50_us": "op_gm_p50_us", "service_p90_us": "op_gm_p90_us",
	}
	out.notes = append(out.notes, fmt.Sprintf("catalogue %d movies; %d ops generated + %d hand-coded; op percentiles weight both stacks equally",
		len(rig.movies), merged(lanes[0].lat).n, merged(lanes[1].lat).n))
	return out, nil
}
