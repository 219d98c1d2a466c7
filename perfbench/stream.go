package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xmovie/internal/core"
	"xmovie/internal/mcam"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/transport"
)

// The stream workload: VOD viewers repeatedly play random segments of a
// Zipf-skewed choice of disk-resident movies over loopback UDP, while the
// benchmark records one live movie through the store and a few viewers
// follow its edge. One generated-stack association issues every play.

const (
	streamFPS       = 1000
	streamFrameSize = 1316 // one MTP datagram per frame
	liveName        = "live"
	liveBatch       = 10 // frames per live Append
	// maxSlip is how far the live recorder may fall behind its schedule
	// before the run is declared invalid: beyond it the benchmark, not the
	// system, sets the edge lag.
	maxSlip = 100 * time.Millisecond
	// resultTimeout bounds the wait for any one play to report back.
	resultTimeout = 10 * time.Second
)

// streamSize is the stream workload's shape.
type streamSize struct {
	movies, frames int // disk catalogue: movies × frames of streamFrameSize bytes
	viewers, edges int // VOD viewers and live-edge viewers
	segMin, segMax int // VOD segment length bounds, frames
	liveSeg        int // frames one live-edge play follows the edge for
	liveCap        int // live frames the run may record
}

func streamShape(o options) streamSize {
	live := int((o.warmup + o.measure + 30*time.Second) / time.Second * streamFPS)
	if o.toy {
		return streamSize{movies: 4, frames: 300, viewers: 2, edges: 1, segMin: 20, segMax: 60, liveSeg: 100, liveCap: live}
	}
	// 24 × 1200 frames × 1316 B is 36 MiB on disk, 4.5 times the 8 MiB
	// default chunk cache, so some chunk reads hit and others miss. Every
	// stream is paced on the same 1 ms wheel tick, so the viewers' frames
	// leave in one burst per tick. 8 VOD viewers keep those bursts short:
	// with 16, on a shared 2-vCPU host, the runs where the host's CPUs ran
	// slow had a frame-lateness p99 up to 2.5 times the median run's; with
	// 8, ten runs with the same slowdowns kept it within 6%.
	return streamSize{movies: 24, frames: 1200, viewers: 8, edges: 2, segMin: 20, segMax: 100, liveSeg: 200, liveCap: live}
}

type streamRig struct {
	size   streamSize
	epoch  time.Time
	dir    string
	cache  *moviedb.ChunkCache
	store  *moviedb.ShardedStore
	movies []string
	sums   [][]uint32 // per movie, the CRC-32 of each frame
	srv    *core.Server
	client *core.Client
	rec    moviedb.Recorder
	// appended[i] is when Append of live frame i returned, in ns since
	// epoch.
	appended []atomic.Int64
	viewers  []*viewer
}

// buildStream seeds the disk catalogue, starts a TCP server configured as
// mcamd configures it (UDP streams, no adaptive window) and dials the
// association that issues the plays.
func buildStream(o options, tr *tracer, n int) (*streamRig, error) {
	size := streamShape(o)
	r := &streamRig{size: size, epoch: time.Now()}
	r.dir = filepath.Join(o.dir, fmt.Sprintf("stream-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	r.cache = moviedb.NewChunkCache(0)
	store, err := moviedb.OpenShardedDiskStore(r.dir, 0, moviedb.DiskConfig{Cache: r.cache})
	if err != nil {
		return nil, err
	}
	r.store = store
	for i := 0; i < size.movies; i++ {
		cfg := moviedb.SynthConfig{
			Name: fmt.Sprintf("vod-%d-%02d", o.seed, i), Frames: size.frames,
			FrameRate: streamFPS, FrameSize: streamFrameSize,
		}
		if err := store.Create(moviedb.SynthesizeLazy(cfg)); err != nil {
			r.close()
			return nil, err
		}
		r.movies = append(r.movies, cfg.Name)
		r.sums = append(r.sums, frameSums(moviedb.NewSynthContent(cfg)))
	}
	if err := store.Create(&moviedb.Movie{Name: liveName, FrameRate: streamFPS}); err != nil {
		r.close()
		return nil, err
	}
	env := &mcam.ServerEnv{Store: tr.store(store, 0), Dialer: tr.dialer(mcam.UDPDialer{}, 0)}
	r.srv, err = core.NewServer(core.ServerConfig{Addr: "127.0.0.1:0", Stack: core.StackGenerated, Env: env})
	if err != nil {
		r.close()
		return nil, err
	}
	tok := tr.beginOp(0)
	conn, err := transport.Dial(r.srv.Addr())
	if err == nil {
		r.client, err = core.NewClientConn(tr.conn(conn, 0), core.ClientConfig{Stack: core.StackGenerated, CallTimeout: callTimeout})
	}
	tr.endOp(0, tok, opDial, uint8(core.StackGenerated), err != nil)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	for i := 0; i < size.viewers+size.edges; i++ {
		lis, err := mtp.ListenUDP("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		v := &viewer{lis: lis, conn: tr.receiverConn(lis, 0), edge: i >= size.viewers}
		if v.edge {
			v.lag = make([]hist, nWindows)
		} else {
			v.late = make([]hist, nWindows)
		}
		r.viewers = append(r.viewers, v)
	}
	r.appended = make([]atomic.Int64, size.liveCap)
	return r, nil
}

// frameSums computes the CRC-32 of every frame of c.
func frameSums(c moviedb.Content) []uint32 {
	src := c.Open()
	defer src.Close()
	sums := make([]uint32, 0, c.Len())
	for {
		f, err := src.Next()
		if err != nil {
			return sums
		}
		sums = append(sums, crc32.ChecksumIEEE(f))
	}
}

func (r *streamRig) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if r.rec != nil {
		keep(r.rec.Close())
	}
	if r.client != nil {
		if err := r.client.Close(); err != nil {
			keep(fmt.Errorf("release: %w", err))
		}
	}
	if r.srv != nil {
		keep(awaitReaped([]*core.Server{r.srv}))
		keep(r.srv.Close())
	}
	for _, v := range r.viewers {
		// A viewer whose play failed has had its socket closed already.
		_ = v.lis.Close()
	}
	if r.store != nil {
		keep(r.store.Close())
	}
	keep(os.RemoveAll(r.dir))
	return first
}

// since returns t in ns since the rig's epoch.
func (r *streamRig) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// viewer is one stream receiver with its own UDP port. Its goroutine runs
// mtp.ReceiveStream once per play.
type viewer struct {
	lis  *mtp.UDPListener
	conn mtp.PacketConn
	edge bool
	// Per measured window, written by the viewer goroutine before it
	// reports each play: frames delivered, VOD frame lateness, and for
	// live frames delivery minus the return of their Append.
	frames [nWindows]int64
	late   []hist
	lag    []hist
}

// play is one Play the control loop issued.
type play struct {
	v           *viewer
	id          int64
	movie       int // index into rig.movies; -1 for the live movie
	from, count int64
	measure     bool
	issued      time.Time
	failed      bool // the Play op itself failed
}

// playResult is what a viewer saw of one play.
type playResult struct {
	*play
	stats mtp.RecvStats
	err   error
	first time.Time // first frame's arrival; zero when none arrived
	bad   int       // delivered frames that failed their content check
}

// receive runs one play's receiver, booking its frames into the meter's
// current window.
func (v *viewer) receive(r *streamRig, p *play, m *meter, tr *tracer) playResult {
	res := playResult{play: p}
	var firstTS time.Duration
	deliver := func(f mtp.Frame) {
		now := time.Now()
		if res.first.IsZero() {
			res.first, firstTS = now, f.TS
		}
		w := m.window()
		measured := w >= 0 && w < nWindows
		if measured {
			v.frames[w]++
		}
		if p.movie < 0 {
			if len(f.Payload) != streamFrameSize || binary.BigEndian.Uint64(f.Payload) != uint64(f.Seq) {
				res.bad++
			}
			if measured && int(f.Seq) < len(r.appended) {
				// A frame can reach the viewer before its Append has
				// returned to the recorder; its lag counts as zero.
				var lag int64
				if at := r.appended[f.Seq].Load(); at != 0 {
					lag = r.since(now) - at
				}
				v.lag[w].add(lag)
			}
			return
		}
		seq := int64(f.Seq)
		if seq < p.from || seq >= p.from+p.count || crc32.ChecksumIEEE(f.Payload) != r.sums[p.movie][seq] {
			res.bad++
		}
		if measured {
			// The schedule is the first frame's arrival plus the media-
			// timestamp offset.
			v.late[w].add(int64(now.Sub(res.first) - (f.TS - firstTS)))
		}
	}
	start := tr.now()
	res.stats, res.err = mtp.ReceiveStream(v.conn, mtp.ReceiverConfig{ExpectedStreamID: uint32(p.id)}, deliver)
	if tr != nil {
		tr.record(span{start: start, end: tr.now(), n: int32(res.stats.Delivered), kind: kReceive, err: res.err != nil})
	}
	return res
}

// record appends the live movie at streamFPS in batches of liveBatch
// frames, each frame carrying its index in its first eight bytes, until
// stop closes; the server's own record path likewise appends a captured
// batch per Append. It returns the generator's own worst slip: how late
// an Append started after both its scheduled time and the return of the
// previous Append. Time the store spends inside Append delays later
// batches too, but that is the system's latency, not the generator's.
func (r *streamRig) record(stop <-chan struct{}) (time.Duration, error) {
	batch := make([][]byte, liveBatch)
	for i := range batch {
		batch[i] = make([]byte, streamFrameSize)
		for j := 8; j < streamFrameSize; j++ {
			batch[i][j] = byte(j)
		}
	}
	period := liveBatch * time.Second / streamFPS
	start := time.Now()
	prev := start
	var worst time.Duration
	for k := 0; ; k++ {
		select {
		case <-stop:
			return worst, nil
		default:
		}
		first := k * liveBatch
		if first+liveBatch > len(r.appended) {
			return worst, fmt.Errorf("live recorder ran past %d frames", len(r.appended))
		}
		due := start.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if prev.After(due) {
			due = prev
		}
		if slip := time.Since(due); slip > worst {
			worst = slip
		}
		for i, f := range batch {
			binary.BigEndian.PutUint64(f, uint64(first+i))
		}
		if _, err := r.rec.Append(batch); err != nil {
			return worst, err
		}
		prev = time.Now()
		for i := range batch {
			r.appended[first+i].Store(r.since(prev))
		}
	}
}

// streamLoop is the control side of a stream run: one association issuing
// every play, and the bookkeeping of what the viewers report back.
type streamLoop struct {
	rig     *streamRig
	out     *outcome
	tr      *tracer
	rng     *rand.Rand
	zipf    *rand.Zipf
	results chan playResult
	jobs    map[*viewer]chan *play

	nextID int64
	busy   int // plays in flight
	idle   []*viewer

	meter   *meter
	plays   []playResult // measured plays
	playLat hist         // measured VOD Play op latencies
}

// issue hands p to its viewer, then plays it through the association.
func (l *streamLoop) issue(p *play) {
	p.id = l.nextID
	l.nextID++
	req := &mcam.Request{Op: mcam.OpPlay, Movie: liveName, StreamAddr: p.v.lis.Addr(),
		Position: p.from, Count: p.count, StreamID: p.id}
	if p.movie >= 0 {
		req.Movie = l.rig.movies[p.movie]
	}
	l.busy++
	p.issued = time.Now()
	l.jobs[p.v] <- p
	resp, d, err := call(l.tr, 0, core.StackGenerated, l.rig.client, req)
	if p.measure && p.movie >= 0 {
		l.playLat.add(int64(d))
	}
	if err != nil || !resp.OK() {
		// No stream will come: closing the viewer's socket ends its
		// receiver and retires the viewer.
		p.failed = true
		if err == nil {
			err = fmt.Errorf("%s (%s)", resp.Status, resp.Diagnostic)
		}
		l.out.tally.fail(1, "play %s: %v", req.Movie, err)
		_ = p.v.lis.Close()
	}
}

// next draws viewer v's next play: a random segment of a Zipf-chosen
// movie, or for an edge viewer the next liveSeg frames from the edge.
func (l *streamLoop) next(v *viewer, measure bool) *play {
	size := l.rig.size
	if v.edge {
		return &play{v: v, movie: -1, from: l.rig.rec.Len(), count: int64(size.liveSeg), measure: measure}
	}
	count := int64(size.segMin + l.rng.Intn(size.segMax-size.segMin+1))
	return &play{v: v, movie: int(l.zipf.Uint64()), count: count,
		from: l.rng.Int63n(int64(size.frames) - count + 1), measure: measure}
}

// run keeps every idle viewer playing until done reports true, then waits
// for the plays in flight.
func (l *streamLoop) run(done func() bool, measure bool) error {
	for {
		if !done() {
			for _, v := range l.idle {
				l.issue(l.next(v, measure))
			}
			l.idle = l.idle[:0]
		}
		if l.busy == 0 {
			if !done() {
				return errors.New("every viewer failed")
			}
			return nil
		}
		var res playResult
		select {
		case res = <-l.results:
			l.busy--
		case <-time.After(resultTimeout):
			return errors.New("a play did not report back")
		}
		l.check(res)
		if measure {
			l.plays = append(l.plays, res)
		}
		if !res.failed && res.err == nil {
			l.idle = append(l.idle, res.v)
		}
	}
}

// check books one finished play: the play itself (its receiver ended
// cleanly and delivered + lost = requested) and each delivered frame.
func (l *streamLoop) check(res playResult) {
	if res.failed {
		return
	}
	t := l.out.tally
	switch {
	case res.err != nil:
		t.fail(1, "play %d: receive: %v", res.id, res.err)
	case int64(res.stats.Delivered+res.stats.Lost) != res.count:
		t.mismatch(1, "play %d: delivered %d + lost %d != requested %d", res.id, res.stats.Delivered, res.stats.Lost, res.count)
	default:
		t.ok(1)
	}
	t.ok(int64(res.stats.Delivered - res.bad))
	if res.bad > 0 {
		t.mismatch(int64(res.bad), "play %d: %d frames failed their content check", res.id, res.bad)
	}
}

// runStream measures the stream workload.
func runStream(o options, tr *tracer) (*outcome, error) {
	builds := 0
	rig, setupS, err := buildRepeatedly(o.setups, func() (*streamRig, error) {
		builds++
		return buildStream(o, tr, builds)
	})
	if err != nil {
		return nil, err
	}
	out, err := measureStream(o, tr, rig)
	if cerr := rig.close(); cerr != nil && err == nil {
		out.tally.mismatch(1, "teardown: %v", cerr)
	}
	out.setupS, out.setups = setupS, o.setups
	return out, err
}

func measureStream(o options, tr *tracer, rig *streamRig) (*outcome, error) {
	out := &outcome{workload: "stream", tally: &tally{}}
	rng := rand.New(rand.NewSource(o.seed))
	m := newMeter()
	l := &streamLoop{rig: rig, out: out, tr: tr, rng: rng, nextID: 1, meter: m,
		zipf:    rand.NewZipf(rng, zipfS, 1, uint64(rig.size.movies-1)),
		results: make(chan playResult, len(rig.viewers)),
		jobs:    make(map[*viewer]chan *play)}
	var vwg sync.WaitGroup
	for _, v := range rig.viewers {
		ch := make(chan *play, 1)
		l.jobs[v] = ch
		l.idle = append(l.idle, v)
		vwg.Add(1)
		go func(v *viewer) {
			defer vwg.Done()
			for p := range ch {
				l.results <- v.receive(rig, p, m, tr)
			}
		}(v)
	}
	defer func() {
		for _, ch := range l.jobs {
			close(ch)
		}
		if l.busy > 0 {
			// A run cut short leaves receivers waiting; closing their
			// sockets ends them.
			for _, v := range rig.viewers {
				_ = v.lis.Close()
			}
		}
		vwg.Wait()
	}()

	// The recorder goes through the store's tracing view on its own lane,
	// so its appends are not booked to the play association.
	rec, err := tr.store(rig.store, 1).Record(liveName)
	if err != nil {
		return out, err
	}
	rig.rec = rec
	stopRec := make(chan struct{})
	recDone := make(chan error, 1)
	var slip time.Duration
	go func() {
		var err error
		slip, err = rig.record(stopRec)
		recDone <- err
	}()
	recording := true
	stopRecorder := func() error {
		if !recording {
			return nil
		}
		recording = false
		close(stopRec)
		err := <-recDone
		if cerr := rig.rec.Close(); err == nil {
			err = cerr
		}
		return err
	}
	defer stopRecorder()

	warm := time.Now().Add(o.warmup)
	if err := l.run(func() bool { return time.Now().After(warm) }, false); err != nil {
		return out, err
	}
	before := snapshotCounters([]*core.Server{rig.srv}, rig.cache)
	metered := make(chan struct{})
	go func() {
		defer close(metered)
		m.run(o.measure)
	}()
	err = l.run(func() bool { return m.window() >= nWindows }, true)
	<-metered
	if err != nil {
		return out, err
	}
	out.snap = snapshotCounters([]*core.Server{rig.srv}, rig.cache).sub(before)
	live := rig.rec.Len()
	if err := stopRecorder(); err != nil {
		return out, fmt.Errorf("live recorder: %w", err)
	}
	if slip > maxSlip {
		return out, fmt.Errorf("live recorder fell %v behind its schedule (limit %v)", slip, maxSlip)
	}

	var firstFrame hist
	var delivered, lost int64
	vod := 0
	for _, res := range l.plays {
		delivered += int64(res.stats.Delivered - res.bad)
		lost += int64(res.stats.Lost)
		if res.movie >= 0 {
			vod++
			if !res.first.IsZero() {
				firstFrame.add(int64(res.first.Sub(res.issued)))
			}
		}
	}
	var frames [nWindows]int64
	var late, lag [][]hist
	for _, v := range rig.viewers {
		for w := range frames {
			frames[w] += v.frames[w]
		}
		if v.edge {
			lag = append(lag, v.lag)
		} else {
			late = append(late, v.late)
		}
	}
	out.delivery = ratio(float64(delivered), float64(delivered+lost))
	out.heapMB = liveHeapMB(len(rig.viewers)*nWindows + 2)

	n := int(delivered)
	out.report.add("delivery_ratio", out.delivery, "ratio", int(delivered+lost), delivered+lost > 0)
	out.report.add("frames_per_s", m.rate(&frames), "1/s", n, delivered > 0)
	out.report.windowed("frame_late", pooled(late))
	out.report.percentiles("first_frame", &firstFrame)
	out.report.windowed("edge_lag", pooled(lag))
	out.report.add("cpu_us_per_frame", m.cpuPer(&frames), "us", n, delivered > 0)
	wall, _ := m.totals()
	out.report.add("plays_per_s", float64(len(l.plays))/wall.Seconds(), "1/s", len(l.plays), len(l.plays) > 0)
	out.report.percentiles("play_op", &l.playLat)
	out.gate = map[string]string{
		"throughput_per_s": "frames_per_s", "cpu_us_per_item": "cpu_us_per_frame",
		"latency_p50_us": "edge_lag_p50_us", "latency_p90_us": "frame_late_p90_us",
		"service_p50_us": "edge_lag_p50_us", "service_p90_us": "frame_late_p90_us",
	}
	cs := out.snap.cache
	out.notes = append(out.notes,
		fmt.Sprintf("disk catalogue %d movies x %d frames x %d B = %.1f MiB against a %.0f MiB chunk cache; segment reads come from the OS page cache after seeding",
			rig.size.movies, rig.size.frames, streamFrameSize,
			float64(rig.size.movies*rig.size.frames*streamFrameSize)/(1<<20), float64(cs.CapBytes)/(1<<20)),
		fmt.Sprintf("%d VOD plays + %d live-edge plays of %d frames; live recorder appended %d frames, worst slip %v",
			vod, len(l.plays)-vod, rig.size.liveSeg, live, slip.Round(time.Microsecond)),
		"chunk cache hit ratio "+fmtRatio(cs.Hits, cs.Hits+cs.Misses))
	return out, nil
}
