package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"xmovie/internal/core"
	"xmovie/internal/directory"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/transport"
)

// The churn workload: two closed-loop lanes, each running whole
// associations back to back over the in-memory pipe. A session dials,
// creates a private movie, selects and modifies it, deletes it and
// releases. Consecutive sessions of a lane alternate the control stacks.

// churnRate is the frame rate churn sessions create their movies with.
const churnRate = 30

type churnRig struct {
	// servers[lane][i] serves lane's sessions on laneStacks[i]: one server
	// per lane and stack, so a traced server-side call belongs to the one
	// session in flight on its lane.
	servers [][]*core.Server
}

// buildChurn starts the in-memory servers over one shared catalogue and
// directory.
func buildChurn(o options, tr *tracer) (*churnRig, error) {
	n := 1000
	if o.toy {
		n = 60
	}
	store := moviedb.NewShardedStore(0)
	if _, err := seedCatalogue(store, o.seed, n); err != nil {
		return nil, err
	}
	dsa := directory.NewDSA("bench", dirBase)
	r := &churnRig{}
	for lane := 0; lane < 2; lane++ {
		env := &mcam.ServerEnv{
			Store:   tr.store(store, lane),
			DUA:     directory.NewDUA(tr.agent(dsa, lane)),
			DirBase: dirBase,
		}
		var row []*core.Server
		for _, stack := range laneStacks {
			srv, err := core.NewServer(core.ServerConfig{Stack: stack, Env: env})
			if err != nil {
				r.servers = append(r.servers, row)
				r.close()
				return nil, err
			}
			row = append(row, srv)
		}
		r.servers = append(r.servers, row)
	}
	return r, nil
}

func (r *churnRig) all() []*core.Server {
	var out []*core.Server
	for _, row := range r.servers {
		out = append(out, row...)
	}
	return out
}

func (r *churnRig) close() error {
	first := awaitReaped(r.all())
	for _, s := range r.all() {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// churnLane is one closed loop of sessions.
type churnLane struct {
	lane int
	rig  *churnRig
	// Per stack (laneStacks order), per window: every op, dial and
	// release included, and whole sessions.
	ops, sessions [2][]hist
}

// session runs one association, recording its timings into window w
// (none when w < 0).
func (l *churnLane) session(i, w int, t *tally, tr *tracer) {
	measure := w >= 0
	si := (i + l.lane) % len(laneStacks)
	stack, srv := laneStacks[si], l.rig.servers[l.lane][si]
	name := fmt.Sprintf("churn-%d-%d", l.lane, i)
	record := func(d time.Duration) {
		if measure {
			l.ops[si][w].add(int64(d))
		}
	}
	start := time.Now()
	tok := tr.beginOp(l.lane)
	cliEnd, srvEnd := transport.Pipe(0)
	admitStart := tr.now()
	err := srv.ServeConn(srvEnd)
	tr.done(kAdmit, uint8(l.lane), admitStart, 1, err != nil)
	var c *core.Client
	if err == nil {
		c, err = core.NewClientConn(tr.conn(cliEnd, l.lane), core.ClientConfig{Stack: stack, CallTimeout: callTimeout})
	} else {
		cliEnd.Close()
	}
	tr.endOp(l.lane, tok, opDial, uint8(stack), err != nil)
	record(time.Since(start))
	if err != nil {
		t.fail(1, "%s dial: %v", stack, err)
		return
	}
	t.ok(1)
	steps := []struct {
		req   *mcam.Request
		check func(*mcam.Response) string
	}{
		{&mcam.Request{Op: mcam.OpCreate, Movie: name, FrameRate: churnRate,
			Attrs: []mcam.Attr{{Name: moviedb.AttrTitle, Value: name}}}, nil},
		{&mcam.Request{Op: mcam.OpSelect, Movie: name}, func(resp *mcam.Response) string {
			if resp.Length != 0 || resp.FrameRate != churnRate {
				return fmt.Sprintf("length %d rate %d, created empty at %d", resp.Length, resp.FrameRate, churnRate)
			}
			return ""
		}},
		{&mcam.Request{Op: mcam.OpModifyAttributes, Movie: name,
			Attrs: []mcam.Attr{{Name: noteAttr, Value: name}}}, nil},
		{&mcam.Request{Op: mcam.OpDelete, Movie: name}, nil},
	}
	for _, st := range steps {
		resp, d, err := call(tr, l.lane, stack, c, st.req)
		record(d)
		switch {
		case err != nil:
			t.fail(1, "%s %s %s: %v", stack, st.req.Op, name, err)
		case !resp.OK():
			t.fail(1, "%s %s %s: %s (%s)", stack, st.req.Op, name, resp.Status, resp.Diagnostic)
		case st.check != nil && st.check(resp) != "":
			t.mismatch(1, "%s %s %s: %s", stack, st.req.Op, name, st.check(resp))
		default:
			t.ok(1)
		}
	}
	tok = tr.beginOp(l.lane)
	relStart := time.Now()
	err = c.Close()
	tr.endOp(l.lane, tok, opRelease, uint8(stack), err != nil)
	record(time.Since(relStart))
	if measure {
		l.sessions[si][w].add(int64(time.Since(start)))
	}
	if err != nil {
		t.fail(1, "%s release: %v", stack, err)
		return
	}
	t.ok(1)
}

// runChurn measures the churn workload.
func runChurn(o options, tr *tracer) (*outcome, error) {
	rig, setupS, err := buildRepeatedly(o.setups, func() (*churnRig, error) { return buildChurn(o, tr) })
	if err != nil {
		return nil, err
	}
	out := &outcome{workload: "churn", tally: &tally{}, setupS: setupS, setups: o.setups, delivery: 1}
	lanes := make([]*churnLane, 2)
	for i := range lanes {
		l := &churnLane{lane: i, rig: rig}
		for si := range laneStacks {
			l.ops[si] = make([]hist, nWindows)
			l.sessions[si] = make([]hist, nWindows)
		}
		lanes[i] = l
	}
	m := newMeter()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *churnLane) {
			defer wg.Done()
			// The seed decides where each lane starts in the stack
			// alternation and its session numbering.
			i := int(rand.New(rand.NewSource(o.seed + int64(l.lane))).Int31n(1 << 20))
			for w := m.window(); w < nWindows; w = m.window() {
				l.session(i, w, out.tally, tr)
				i++
			}
		}(l)
	}
	time.Sleep(o.warmup)
	before := snapshotCounters(nil, nil)
	m.run(o.measure)
	wg.Wait()
	out.snap = snapshotCounters(nil, nil).sub(before)

	// byStack lists a measurement's populations per stack, and all of
	// them.
	byStack := func(pick func(*churnLane) [2][]hist) (stacks [2][][]hist, all [][]hist) {
		for _, l := range lanes {
			for si, h := range pick(l) {
				stacks[si] = append(stacks[si], h)
				all = append(all, h)
			}
		}
		return stacks, all
	}
	opStacks, opAll := byStack(func(l *churnLane) [2][]hist { return l.ops })
	sessStacks, sessAll := byStack(func(l *churnLane) [2][]hist { return l.sessions })
	var ops [nWindows]int64
	var total int64
	for w := range ops {
		for _, h := range opAll {
			ops[w] += h[w].n
		}
		total += ops[w]
	}
	sessions := merged(sessAll...)
	// The heap is read once the last released session has been reaped, so
	// it holds the servers' steady state, not a teardown in progress.
	if err := awaitReaped(rig.all()); err != nil {
		out.tally.mismatch(1, "teardown: %v", err)
	}
	out.heapMB = liveHeapMB(2 * 2 * 2 * nWindows)
	if err := rig.close(); err != nil {
		out.tally.mismatch(1, "teardown: %v", err)
	}
	for _, s := range rig.all() {
		st := s.Observe().Sessions
		out.tally.check(st.Completed == st.Accepted && st.Rejected == 0,
			"server completed %d of %d accepted sessions, rejected %d", st.Completed, st.Accepted, st.Rejected)
	}
	n := int(total)
	out.report.add("ops_per_s", m.rate(&ops), "1/s", n, total > 0)
	out.report.windowed("op", opAll...)
	out.report.add("cpu_us_per_op", m.cpuPer(&ops), "us", n, total > 0)
	out.report.windowed("session", sessAll...)
	for si, stack := range laneStacks {
		out.report.windowed("op_"+stack.String(), opStacks[si]...)
		out.report.windowed("session_"+stack.String(), sessStacks[si]...)
	}
	out.report.stackMean("op")
	out.report.stackMean("session")
	out.gate = map[string]string{
		"throughput_per_s": "ops_per_s", "cpu_us_per_item": "cpu_us_per_op",
		"latency_p50_us": "op_gm_p50_us", "latency_p90_us": "op_gm_p90_us",
		"service_p50_us": "session_gm_p50_us", "service_p90_us": "session_gm_p90_us",
	}
	wall, _ := m.totals()
	out.notes = append(out.notes, fmt.Sprintf("%d sessions (%.0f/s), 6 ops each counting dial and release",
		sessions.n, float64(sessions.n)/wall.Seconds()))
	return out, nil
}
