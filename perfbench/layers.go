package main

import (
	"fmt"
	"sort"
	"strings"

	"xmovie/internal/core"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/spa"
	"xmovie/internal/timewheel"
)

// counters are the public snapshot counters a run reads: the servers'
// stream totals (Observe().Streams), the shared pacing wheel and the zero-
// copy send path (process-wide, also in Observe()), and a chunk cache.
type counters struct {
	streams  spa.Totals
	wheel    timewheel.Stats
	delivery mtp.DeliveryStats
	cache    moviedb.CacheStats
}

func snapshotCounters(servers []*core.Server, cache *moviedb.ChunkCache) counters {
	c := counters{delivery: mtp.Delivery(), wheel: timewheel.Default().Stats()}
	for i, s := range servers {
		o := s.Observe()
		if i == 0 {
			c.delivery, c.wheel = o.Delivery, o.TimerWheel
		}
		c.streams.Streams += o.Streams.Streams
		c.streams.Frames += o.Streams.Frames
		c.streams.Dropped += o.Streams.Dropped
		c.streams.Late += o.Streams.Late
		c.streams.Bytes += o.Streams.Bytes
		c.streams.Feedback += o.Streams.Feedback
	}
	if cache != nil {
		c.cache = cache.Stats()
	}
	return c
}

// sub returns the counts accumulated since b.
func (c counters) sub(b counters) counters {
	return counters{
		streams: spa.Totals{
			Streams: c.streams.Streams - b.streams.Streams, Frames: c.streams.Frames - b.streams.Frames,
			Dropped: c.streams.Dropped - b.streams.Dropped, Late: c.streams.Late - b.streams.Late,
			Bytes: c.streams.Bytes - b.streams.Bytes, Feedback: c.streams.Feedback - b.streams.Feedback,
		},
		wheel: timewheel.Stats{
			Ticks: c.wheel.Ticks - b.wheel.Ticks, Armed: c.wheel.Armed - b.wheel.Armed,
			Fired: c.wheel.Fired - b.wheel.Fired, Canceled: c.wheel.Canceled - b.wheel.Canceled,
		},
		delivery: mtp.DeliveryStats{
			VecSends: c.delivery.VecSends - b.delivery.VecSends, CopySends: c.delivery.CopySends - b.delivery.CopySends,
			Batches: c.delivery.Batches - b.delivery.Batches, BatchFrames: c.delivery.BatchFrames - b.delivery.BatchFrames,
			VecBytes: c.delivery.VecBytes - b.delivery.VecBytes,
		},
		cache: moviedb.CacheStats{
			Hits: c.cache.Hits - b.cache.Hits, Misses: c.cache.Misses - b.cache.Misses,
			Evictions: c.cache.Evictions - b.cache.Evictions, Bytes: c.cache.Bytes, CapBytes: c.cache.CapBytes,
		},
	}
}

// kindStats aggregates the spans of one kind.
type kindStats struct {
	n, errs int
	busy    int64 // ns inside the calls, edge waits excluded
	items   int64 // sum of the spans' carried counts
	nonzero int   // calls that carried at least one item
}

func (k kindStats) meanUs() float64 { return ratio(float64(k.busy)/1e3, float64(k.n)) }

// opTrace is one control op with the time its children took.
type opTrace struct {
	op        span
	sends     []span
	recvs     []span
	replyWait int64
	moviedb   int64 // store spans inside the op's interval
	directory int64 // directory spans inside the op's interval
}

func isStoreKind(k spanKind) bool { return k >= kGet && k <= kAppend }
func isDirKind(k spanKind) bool   { return k >= kDirRead && k <= kDirModify }

// opKindName names an op kind carried by a kOp span.
func opKindName(n int32) string {
	switch n {
	case opDial:
		return "dial"
	case opRelease:
		return "release"
	}
	return strings.ToLower(mcam.Op(n).String())
}

// traceAnalysis is everything derived from one traced run's spans.
type traceAnalysis struct {
	kinds [numKinds]kindStats
	ops   []*opTrace
	// derived reply-wait spans, added to the span file
	replyWaits []span
}

func analyzeSpans(spans []span) *traceAnalysis {
	a := &traceAnalysis{}
	byOp := make(map[uint64]*opTrace)
	get := func(id uint64) *opTrace {
		t := byOp[id]
		if t == nil {
			t = &opTrace{}
			byOp[id] = t
		}
		return t
	}
	for _, s := range spans {
		k := &a.kinds[s.kind]
		k.n++
		if s.err {
			k.errs++
		}
		k.busy += s.end - s.start - s.wait
		k.items += int64(s.n)
		if s.n > 0 {
			k.nonzero++
		}
		if s.op == 0 {
			continue
		}
		t := get(s.op)
		switch s.kind {
		case kOp:
			t.op = s
		case kSend:
			t.sends = append(t.sends, s)
		case kRecvMsg:
			t.recvs = append(t.recvs, s)
		}
	}
	for _, s := range spans {
		if s.op == 0 || !(isStoreKind(s.kind) || isDirKind(s.kind)) {
			continue
		}
		t := byOp[s.op]
		if t == nil || t.op.kind != kOp || s.start < t.op.start || s.end > t.op.end {
			continue // a stream's reads after its Play replied
		}
		if isStoreKind(s.kind) {
			t.moviedb += s.end - s.start - s.wait
		} else {
			t.directory += s.end - s.start
		}
	}
	for _, t := range byOp {
		if t.op.kind != kOp {
			continue
		}
		sort.Slice(t.sends, func(i, j int) bool { return t.sends[i].start < t.sends[j].start })
		sort.Slice(t.recvs, func(i, j int) bool { return t.recvs[i].start < t.recvs[j].start })
		// Pair each request with the first message received after it was
		// handed to the transport: the reply wait runs from the end of the
		// send to that arrival.
		r := 0
		for _, s := range t.sends {
			for r < len(t.recvs) && t.recvs[r].start < s.start {
				r++
			}
			if r == len(t.recvs) {
				break
			}
			w := t.recvs[r].start - s.end
			if w < 0 {
				w = 0
			}
			t.replyWait += w
			a.replyWaits = append(a.replyWaits, span{start: s.end, end: s.end + w, op: t.op.op, kind: kReplyWait, lane: s.lane})
			r++
		}
		a.ops = append(a.ops, t)
	}
	sort.Slice(a.ops, func(i, j int) bool { return a.ops[i].op.start < a.ops[j].op.start })
	for _, w := range a.replyWaits {
		k := &a.kinds[kReplyWait]
		k.n++
		k.busy += w.end - w.start
	}
	return a
}

// stackSelf is the mean time per op a control stack spent in its reply
// waits outside the store and directory calls they contain.
func (a *traceAnalysis) stackSelf(stack core.StackKind) (mean float64, n, errs int) {
	var sum int64
	for _, t := range a.ops {
		if t.op.stack != uint8(stack) {
			continue
		}
		n++
		if t.op.err {
			errs++
		}
		if self := t.replyWait - t.moviedb - t.directory; self > 0 {
			sum += self
		}
	}
	return ratio(float64(sum)/1e3, float64(n)), n, errs
}

// attribution prints, per stack and op kind, the op time split into the
// layers' self times and the residual the spans leave unexplained.
func (a *traceAnalysis) attribution() []string {
	type key struct {
		stack uint8
		kind  int32
	}
	type acc struct {
		n                                          int
		op, send, wait, store, dir, self, residual int64
	}
	groups := make(map[key]*acc)
	var keys []key
	for _, t := range a.ops {
		k := key{t.op.stack, t.op.n}
		g := groups[k]
		if g == nil {
			g = &acc{}
			groups[k] = g
			keys = append(keys, k)
		}
		var send int64
		for _, s := range t.sends {
			send += s.end - s.start
		}
		d := t.op.end - t.op.start
		g.n++
		g.op += d
		g.send += send
		g.wait += t.replyWait
		g.store += t.moviedb
		g.dir += t.directory
		g.self += t.replyWait - t.moviedb - t.directory
		g.residual += d - send - t.replyWait
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stack != keys[j].stack {
			return keys[i].stack < keys[j].stack
		}
		return keys[i].kind < keys[j].kind
	})
	lines := []string{fmt.Sprintf("  %-10s %-16s %8s %9s %9s %9s %9s %9s %9s",
		"stack", "op", "n", "op_us", "send_us", "stack_us", "moviedb", "directory", "residual")}
	for _, k := range keys {
		g := groups[k]
		mean := func(v int64) float64 { return float64(v) / 1e3 / float64(g.n) }
		lines = append(lines, fmt.Sprintf("  %-10s %-16s %8d %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f",
			core.StackKind(k.stack), opKindName(k.kind), g.n, mean(g.op), mean(g.send),
			mean(g.self), mean(g.store), mean(g.dir), mean(g.residual)))
	}
	return lines
}

// layerMetrics derives the per-layer metrics of a traced run. base is the
// untraced run of the same workload, for the tracing overhead.
func layerMetrics(traced, base *outcome, a *traceAnalysis, codec codecCost, nspans int) metricSet {
	var m metricSet
	k := &a.kinds
	count := func(name string, v int64) { m.add(name, float64(v), "count", int(v), true) }
	us := func(name string, s kindStats) { m.add(name, s.meanUs(), "us", s.n, true) }
	sumKinds := func(kinds ...spanKind) (st kindStats) {
		for _, kd := range kinds {
			st.n += k[kd].n
			st.errs += k[kd].errs
			st.busy += k[kd].busy
			st.items += k[kd].items
			st.nonzero += k[kd].nonzero
		}
		return st
	}
	ops := int64(len(a.ops))
	var dial, release kindStats
	var plays kindStats
	playErrs := 0
	for _, t := range a.ops {
		d := t.op.end - t.op.start
		switch {
		case t.op.n == opDial:
			dial.n++
			dial.busy += d
			if t.op.err {
				dial.errs++
			}
		case t.op.n == opRelease:
			release.n++
			release.busy += d
			if t.op.err {
				release.errs++
			}
		case mcam.Op(t.op.n) == mcam.OpPlay:
			plays.n++
			plays.busy += d
			if t.op.err {
				playErrs++
			}
		}
	}

	tr := sumKinds(kSend, kRecvMsg)
	count("transport.calls", int64(tr.n))
	count("transport.errors", int64(tr.errs))
	us("transport.send_us", k[kSend])
	us("transport.reply_wait_us", k[kReplyWait])
	m.add("transport.msgs_per_op", ratio(float64(tr.n), float64(ops)), "ratio", int(ops), true)
	m.add("transport.bytes_per_op", ratio(float64(tr.items), float64(ops)), "B", int(ops), true)

	count("core.calls", int64(dial.n+release.n+k[kAdmit].n))
	count("core.errors", int64(dial.errs+release.errs+k[kAdmit].errs))
	us("core.dial_us", dial)
	us("core.admit_us", k[kAdmit])
	us("core.release_us", release)

	for _, st := range []core.StackKind{core.StackGenerated, core.StackHandcoded} {
		layer := "estelle"
		if st == core.StackHandcoded {
			layer = "isode"
		}
		self, n, errs := a.stackSelf(st)
		count(layer+".calls", int64(n))
		count(layer+".errors", int64(errs))
		m.add(layer+".self_us", self, "us", n, true)
	}

	count("session.calls", int64(codec.sessionN+codec.sessionErr))
	count("session.errors", int64(codec.sessionErr))
	m.add("session.decode_ns", codec.sessionNs, "ns", codec.sessionN, true)
	count("presentation.calls", int64(codec.presentationN+codec.presentationErr))
	count("presentation.errors", int64(codec.presentationErr))
	m.add("presentation.decode_ns", codec.presentationNs, "ns", codec.presentationN, true)
	failedOps := 0
	for _, t := range a.ops {
		if t.op.err && t.op.n != opDial && t.op.n != opRelease {
			failedOps++
		}
	}
	count("mcam.calls", ops-int64(dial.n+release.n))
	count("mcam.errors", int64(failedOps+codec.mcamErr))
	m.add("mcam.decode_ns", codec.mcamDecodeNs, "ns", codec.mcamN, true)
	m.add("mcam.encode_ns", codec.mcamEncodeNs, "ns", codec.mcamN, true)
	us("mcam.play_us", plays)

	store := sumKinds(kGet, kList, kSetAttrs, kCreate, kDelete, kAppendFrames, kRecord, kOpen, kNext, kNextBatch, kAppend)
	count("moviedb.calls", int64(store.n))
	count("moviedb.errors", int64(store.errs))
	us("moviedb.get_us", k[kGet])
	us("moviedb.list_us", k[kList])
	us("moviedb.setattrs_us", k[kSetAttrs])
	us("moviedb.create_us", k[kCreate])
	us("moviedb.delete_us", k[kDelete])
	us("moviedb.open_us", k[kOpen])
	cs := traced.snap.cache
	m.add("moviedb.cache_hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)), "ratio", int(cs.Hits+cs.Misses), true)
	reads := sumKinds(kNext, kNextBatch)
	m.add("moviedb.read_us_per_frame", ratio(float64(reads.busy)/1e3, float64(reads.items)), "us", int(reads.items), true)
	m.add("moviedb.frames_per_read", ratio(float64(reads.items), float64(reads.nonzero)), "ratio", reads.nonzero, true)
	us("moviedb.append_us", k[kAppend])

	dir := sumKinds(kDirRead, kDirSearch, kDirAdd, kDirRemove, kDirModify)
	count("directory.calls", int64(dir.n))
	count("directory.errors", int64(dir.errs))
	us("directory.read_us", k[kDirRead])
	us("directory.add_us", k[kDirAdd])
	us("directory.modify_us", k[kDirModify])
	us("directory.remove_us", k[kDirRemove])
	m.add("directory.errors_per_op", ratio(float64(dir.errs), float64(ops)), "ratio", int(ops), true)

	st := traced.snap.streams
	count("spa.calls", st.Streams)
	count("spa.errors", int64(playErrs))
	m.add("spa.late_per_frame", ratio(float64(st.Late), float64(st.Frames)), "ratio", int(st.Frames), true)
	m.add("spa.dropped_per_frame", ratio(float64(st.Dropped), float64(st.Frames+st.Dropped)), "ratio", int(st.Frames+st.Dropped), true)

	send := sumKinds(kPktSend, kPktSendVec, kPktSendBatch)
	count("mtp.calls", int64(send.n+k[kReceive].n))
	count("mtp.errors", int64(send.errs+k[kReceive].errs))
	m.add("mtp.send_us_per_frame", ratio(float64(send.busy)/1e3, float64(send.items)), "us", int(send.items), true)
	m.add("mtp.writes_per_frame", ratio(float64(send.nonzero), float64(send.items)), "ratio", int(send.items), true)
	dl := traced.snap.delivery
	m.add("mtp.frames_per_batch", ratio(float64(dl.BatchFrames), float64(dl.Batches)), "ratio", int(dl.Batches), true)
	m.add("mtp.recv_wait_share", ratio(float64(k[kRecvWait].busy), float64(k[kReceive].busy)), "ratio", k[kReceive].n, true)
	count("mtp.copy_sends", dl.CopySends)

	wh := traced.snap.wheel
	count("timewheel.calls", wh.Armed)
	count("timewheel.errors", 0)
	m.add("timewheel.fires_per_frame", ratio(float64(wh.Fired), float64(st.Frames)), "ratio", int(st.Frames), true)

	overhead := func(name string) float64 {
		t, _ := traced.report.get(traced.gate[name])
		b, _ := base.report.get(base.gate[name])
		return t.Value - b.Value
	}
	m.add("trace.overhead_latency_p50_us", overhead("latency_p50_us"), "us", 2, true)
	m.add("trace.overhead_cpu_us_per_item", overhead("cpu_us_per_item"), "us", 2, true)
	count("trace.spans", int64(nspans))
	return m
}
