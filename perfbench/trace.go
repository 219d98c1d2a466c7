package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xmovie/internal/directory"
	"xmovie/internal/moviedb"
	"xmovie/internal/mtp"
	"xmovie/internal/spa"
	"xmovie/internal/transport"
)

// spanKind names one traced layer boundary.
type spanKind uint8

const (
	kOp        spanKind = iota // one client control op: a Call, a dial or a release
	kSend                      // client transport.Conn.Send
	kRecvMsg                   // client transport.Conn.Recv returned a message (a point)
	kReplyWait                 // derived: request sent until its reply arrived
	kAdmit                     // core.Server.ServeConn
	kGet                       // moviedb.Store methods
	kList
	kSetAttrs
	kCreate
	kDelete
	kAppendFrames
	kRecord
	kOpen      // moviedb.Content.Open
	kNext      // moviedb.FrameSource.Next
	kNextBatch // mtp.BatchSource.NextBatch on a store source
	kAppend    // moviedb.Recorder.Append
	kDirRead   // directory.Agent methods
	kDirSearch
	kDirAdd
	kDirRemove
	kDirModify
	kPktSend      // mtp.PacketConn.Send on the stream sender's conn
	kPktSendVec   // mtp.VecConn.SendVec
	kPktSendBatch // mtp.BatchConn.SendBatch
	kRecvWait     // mtp receiver blocked in PacketConn.Recv
	kReceive      // one whole mtp.ReceiveStream call
	numKinds
)

var kindNames = [numKinds]string{
	kOp: "op", kSend: "transport.send", kRecvMsg: "transport.recv", kReplyWait: "transport.reply_wait",
	kAdmit: "core.admit", kGet: "moviedb.get", kList: "moviedb.list", kSetAttrs: "moviedb.setattrs",
	kCreate: "moviedb.create", kDelete: "moviedb.delete", kAppendFrames: "moviedb.appendframes",
	kRecord: "moviedb.record", kOpen: "moviedb.open", kNext: "moviedb.next", kNextBatch: "moviedb.nextbatch",
	kAppend: "moviedb.append", kDirRead: "directory.read", kDirSearch: "directory.search",
	kDirAdd: "directory.add", kDirRemove: "directory.remove", kDirModify: "directory.modify",
	kPktSend: "mtp.send", kPktSendVec: "mtp.sendvec", kPktSendBatch: "mtp.sendbatch",
	kRecvWait: "mtp.recv_wait", kReceive: "mtp.receive",
}

// Op kinds beyond mcam.Op carried by kOp spans.
const (
	opDial    = 100
	opRelease = 101
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch. Spans of one control op share its op id; the op's own
// kOp span is their parent.
type span struct {
	start, end int64
	// wait is time inside the call spent blocked at a live edge, which is
	// not work of the layer.
	wait int64
	op   uint64
	// n counts what the call carried: bytes for transport messages,
	// frames for source reads and packet sends, the op kind for kOp.
	n     int32
	kind  spanKind
	lane  uint8
	stack uint8 // kOp only: the control stack that served the op
	err   bool
}

// maxLanes bounds the load lanes one run may use.
const maxLanes = 4

// tracer records spans in memory for one traced run. Decorators built by
// its methods wrap each layer's public interface; every method is a no-op
// pass-through on a nil tracer, which is how untraced runs build the same
// rig.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64 // spans not kept once spanLimit were

	ops   atomic.Uint64
	lanes [maxLanes]atomic.Uint64 // control op in flight on each lane (0: none)

	wireMu sync.Mutex
	wire   [][]byte // the first wireLimit control messages, for the codec replay
}

// Bounds on what a traced run keeps in memory.
const (
	spanLimit = 4 << 20
	wireLimit = 20000
)

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// now returns nanoseconds since the epoch; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// done records a span of kind that started at start and ends now, on
// behalf of the op in flight on lane.
func (t *tracer) done(kind spanKind, lane uint8, start int64, n int, err bool) {
	if t == nil {
		return
	}
	t.record(span{start: start, end: t.now(), op: t.lanes[lane].Load(), n: int32(n), kind: kind, lane: lane, err: err})
}

// opToken is a started control op.
type opToken struct {
	id    uint64
	start int64
}

// beginOp marks a control op in flight on lane; server-side spans recorded
// for the lane until endOp belong to it.
func (t *tracer) beginOp(lane int) opToken {
	if t == nil {
		return opToken{}
	}
	tok := opToken{id: t.ops.Add(1), start: t.now()}
	t.lanes[lane].Store(tok.id)
	return tok
}

// endOp records the op's span and clears the lane.
func (t *tracer) endOp(lane int, tok opToken, kind int, stack uint8, failed bool) {
	if t == nil {
		return
	}
	t.lanes[lane].Store(0)
	t.record(span{start: tok.start, end: t.now(), op: tok.id, n: int32(kind), kind: kOp,
		lane: uint8(lane), stack: stack, err: failed})
}

// keepWire retains a copy of a control message for the codec replay.
func (t *tracer) keepWire(p []byte) {
	t.wireMu.Lock()
	if len(t.wire) < wireLimit {
		t.wire = append(t.wire, append([]byte(nil), p...))
	}
	t.wireMu.Unlock()
}

// snapshot returns the recorded spans; call it once every traced goroutine
// has stopped.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeSpans writes spans, then derived, as gzip-compressed CSV: name,
// start and end in ns since the tracer epoch, the index of the parent span
// (-1 for roots), op id, lane, the carried count and the error flag.
func writeSpans(path string, spans, derived []span) error {
	root := make(map[uint64]int)
	for i, s := range spans {
		if s.kind == kOp {
			root[s.op] = i
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,op,lane,n,err")
	for _, batch := range [][]span{spans, derived} {
		for _, s := range batch {
			parent := -1
			if i, ok := root[s.op]; ok && s.kind != kOp && s.op != 0 {
				parent = i
			}
			errBit := 0
			if s.err {
				errBit = 1
			}
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d\n", kindNames[s.kind], s.start, s.end, parent, s.op, s.lane, s.n, errBit)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- transport -------------------------------------------------------------

// conn traces the client side of a control connection of lane.
func (t *tracer) conn(c transport.Conn, lane int) transport.Conn {
	if t == nil {
		return c
	}
	return &tracedConn{inner: c, t: t, lane: uint8(lane)}
}

type tracedConn struct {
	inner transport.Conn
	t     *tracer
	lane  uint8
}

func (c *tracedConn) Send(p []byte) error {
	start := c.t.now()
	err := c.inner.Send(p)
	c.t.done(kSend, c.lane, start, len(p), err != nil)
	c.t.keepWire(p)
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	p, err := c.inner.Recv()
	now := c.t.now()
	op := c.t.lanes[c.lane].Load()
	switch {
	case err == nil:
		c.t.record(span{start: now, end: now, op: op, n: int32(len(p)), kind: kRecvMsg, lane: c.lane})
		c.t.keepWire(p)
	case !closedErr(err):
		c.t.record(span{start: now, end: now, op: op, kind: kRecvMsg, lane: c.lane, err: true})
	}
	return p, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// closedErr reports whether err only says the connection has ended: the
// peer's or this side's close, which every association ends with.
func closedErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, transport.ErrClosed)
}

// --- moviedb -----------------------------------------------------------------

// store traces a movie store used by lane's server.
func (t *tracer) store(s moviedb.Store, lane int) moviedb.Store {
	if t == nil {
		return s
	}
	ts := &tracedStore{inner: s, t: t, lane: uint8(lane)}
	if c, ok := s.(io.Closer); ok {
		return struct {
			*tracedStore
			io.Closer
		}{ts, c}
	}
	return ts
}

type tracedStore struct {
	inner moviedb.Store
	t     *tracer
	lane  uint8
}

func (s *tracedStore) Create(m *moviedb.Movie) error {
	start := s.t.now()
	err := s.inner.Create(m)
	s.t.done(kCreate, s.lane, start, 1, err != nil)
	return err
}

func (s *tracedStore) Get(name string) (*moviedb.Movie, error) {
	start := s.t.now()
	m, err := s.inner.Get(name)
	s.t.done(kGet, s.lane, start, 1, err != nil)
	if m != nil && m.Content != nil {
		m.Content = &tracedContent{inner: m.Content, t: s.t, lane: s.lane}
	}
	return m, err
}

func (s *tracedStore) Delete(name string) error {
	start := s.t.now()
	err := s.inner.Delete(name)
	s.t.done(kDelete, s.lane, start, 1, err != nil)
	return err
}

func (s *tracedStore) List() []string {
	start := s.t.now()
	names := s.inner.List()
	s.t.done(kList, s.lane, start, len(names), false)
	return names
}

func (s *tracedStore) SetAttrs(name string, updates moviedb.Attributes) error {
	start := s.t.now()
	err := s.inner.SetAttrs(name, updates)
	s.t.done(kSetAttrs, s.lane, start, 1, err != nil)
	return err
}

func (s *tracedStore) AppendFrames(name string, frames [][]byte) error {
	start := s.t.now()
	err := s.inner.AppendFrames(name, frames)
	s.t.done(kAppendFrames, s.lane, start, len(frames), err != nil)
	return err
}

func (s *tracedStore) Record(name string) (moviedb.Recorder, error) {
	start := s.t.now()
	r, err := s.inner.Record(name)
	s.t.done(kRecord, s.lane, start, 1, err != nil)
	if err != nil {
		return nil, err
	}
	return &tracedRecorder{inner: r, t: s.t, lane: s.lane}, nil
}

type tracedRecorder struct {
	inner moviedb.Recorder
	t     *tracer
	lane  uint8
}

func (r *tracedRecorder) Append(frames [][]byte) (int64, error) {
	start := r.t.now()
	n, err := r.inner.Append(frames)
	r.t.done(kAppend, r.lane, start, len(frames), err != nil)
	return n, err
}

func (r *tracedRecorder) Len() int64   { return r.inner.Len() }
func (r *tracedRecorder) Close() error { return r.inner.Close() }

type tracedContent struct {
	inner moviedb.Content
	t     *tracer
	lane  uint8
}

func (c *tracedContent) Len() int64 { return c.inner.Len() }

// Open traces the open and wraps the source; the source's reads belong to
// the op that opened it (a Play), whichever goroutine later drives it.
func (c *tracedContent) Open() moviedb.FrameSource {
	start := c.t.now()
	src := c.inner.Open()
	c.t.done(kOpen, c.lane, start, 1, false)
	return c.t.source(src, c.lane, c.t.lanes[c.lane].Load())
}

// source wraps a frame source, exposing exactly the optional interfaces
// the wrapped source implements, so the sender keeps its batching, live-
// edge pacing and cancellation paths.
func (t *tracer) source(inner moviedb.FrameSource, lane uint8, op uint64) moviedb.FrameSource {
	s := &tracedSource{inner: inner, t: t, lane: lane, op: op}
	s.ew, _ = inner.(mtp.EdgeWaiter)
	bs, hasB := inner.(mtp.BatchSource)
	wc, hasC := inner.(moviedb.WaitCanceler)
	rr, hasR := inner.(moviedb.ResidentReporter)
	var (
		b mtp.BatchSource = batchPart{s, bs}
		w mtp.EdgeWaiter  = waitPart{s}
	)
	type (
		B = mtp.BatchSource
		W = mtp.EdgeWaiter
		C = moviedb.WaitCanceler
		R = moviedb.ResidentReporter
	)
	switch mask(hasB, s.ew != nil, hasC, hasR) {
	case 0b0000:
		return s
	case 0b0001:
		return struct {
			*tracedSource
			R
		}{s, rr}
	case 0b0010:
		return struct {
			*tracedSource
			C
		}{s, wc}
	case 0b0011:
		return struct {
			*tracedSource
			C
			R
		}{s, wc, rr}
	case 0b0100:
		return struct {
			*tracedSource
			W
		}{s, w}
	case 0b0101:
		return struct {
			*tracedSource
			W
			R
		}{s, w, rr}
	case 0b0110:
		return struct {
			*tracedSource
			W
			C
		}{s, w, wc}
	case 0b0111:
		return struct {
			*tracedSource
			W
			C
			R
		}{s, w, wc, rr}
	case 0b1000:
		return struct {
			*tracedSource
			B
		}{s, b}
	case 0b1001:
		return struct {
			*tracedSource
			B
			R
		}{s, b, rr}
	case 0b1010:
		return struct {
			*tracedSource
			B
			C
		}{s, b, wc}
	case 0b1011:
		return struct {
			*tracedSource
			B
			C
			R
		}{s, b, wc, rr}
	case 0b1100:
		return struct {
			*tracedSource
			B
			W
		}{s, b, w}
	case 0b1101:
		return struct {
			*tracedSource
			B
			W
			R
		}{s, b, w, rr}
	case 0b1110:
		return struct {
			*tracedSource
			B
			W
			C
		}{s, b, w, wc}
	default:
		return struct {
			*tracedSource
			B
			W
			C
			R
		}{s, b, w, wc, rr}
	}
}

// mask packs four capability flags, most significant first.
func mask(flags ...bool) int {
	m := 0
	for _, f := range flags {
		m <<= 1
		if f {
			m |= 1
		}
	}
	return m
}

// tracedSource times reads. Time a read spends blocked at a live edge is
// taken from the wrapped source's EdgeWaiter, recorded as the span's wait
// and handed on to the sender through the wrapper's own TakeWaited.
type tracedSource struct {
	inner  moviedb.FrameSource
	t      *tracer
	lane   uint8
	op     uint64
	ew     mtp.EdgeWaiter
	waited time.Duration
}

func (s *tracedSource) Len() int64             { return s.inner.Len() }
func (s *tracedSource) Pos() int64             { return s.inner.Pos() }
func (s *tracedSource) SeekTo(pos int64) error { return s.inner.SeekTo(pos) }
func (s *tracedSource) Close() error           { return s.inner.Close() }
func (s *tracedSource) read(kind spanKind, start int64, n int, err bool) {
	var wait time.Duration
	if s.ew != nil {
		wait = s.ew.TakeWaited()
		s.waited += wait
	}
	s.t.record(span{start: start, end: s.t.now(), wait: int64(wait), op: s.op, n: int32(n), kind: kind, lane: s.lane, err: err})
}

func (s *tracedSource) Next() ([]byte, error) {
	start := s.t.now()
	f, err := s.inner.Next()
	n := 1
	if err != nil {
		n = 0
	}
	s.read(kNext, start, n, err != nil && err != io.EOF)
	return f, err
}

type batchPart struct {
	s  *tracedSource
	bs mtp.BatchSource
}

func (p batchPart) NextBatch(max int) [][]byte {
	start := p.s.t.now()
	b := p.bs.NextBatch(max)
	p.s.read(kNextBatch, start, len(b), false)
	return b
}

type waitPart struct{ s *tracedSource }

func (p waitPart) TakeWaited() time.Duration {
	w := p.s.waited
	p.s.waited = 0
	return w
}

// --- directory ---------------------------------------------------------------

// agent traces a directory agent used by lane's server; pass the result to
// directory.NewDUA.
func (t *tracer) agent(a directory.Agent, lane int) directory.Agent {
	if t == nil {
		return a
	}
	return &tracedAgent{inner: a, t: t, lane: uint8(lane)}
}

type tracedAgent struct {
	inner directory.Agent
	t     *tracer
	lane  uint8
}

func (a *tracedAgent) Read(dn directory.DN, hops int) (*directory.Entry, error) {
	start := a.t.now()
	e, err := a.inner.Read(dn, hops)
	// A miss is how the handler finds a movie without an entry yet.
	a.t.done(kDirRead, a.lane, start, 1, err != nil && !errors.Is(err, directory.ErrNoSuchEntry))
	return e, err
}

func (a *tracedAgent) Search(base directory.DN, scope directory.Scope, f directory.Filter, hops int) ([]*directory.Entry, error) {
	start := a.t.now()
	es, err := a.inner.Search(base, scope, f, hops)
	a.t.done(kDirSearch, a.lane, start, len(es), err != nil)
	return es, err
}

func (a *tracedAgent) Add(e *directory.Entry, hops int) error {
	start := a.t.now()
	err := a.inner.Add(e, hops)
	a.t.done(kDirAdd, a.lane, start, 1, err != nil)
	return err
}

func (a *tracedAgent) Remove(dn directory.DN, hops int) error {
	start := a.t.now()
	err := a.inner.Remove(dn, hops)
	a.t.done(kDirRemove, a.lane, start, 1, err != nil)
	return err
}

func (a *tracedAgent) Modify(dn directory.DN, set map[string][]string, del []string, hops int) error {
	start := a.t.now()
	err := a.inner.Modify(dn, set, del, hops)
	a.t.done(kDirModify, a.lane, start, 1, err != nil)
	return err
}

// --- spa / mtp -----------------------------------------------------------------

// dialer traces the stream paths a server's SPA dials.
func (t *tracer) dialer(d spa.StreamDialer, lane int) spa.StreamDialer {
	if t == nil {
		return d
	}
	return &tracedDialer{inner: d, t: t, lane: uint8(lane)}
}

type tracedDialer struct {
	inner spa.StreamDialer
	t     *tracer
	lane  uint8
}

func (d *tracedDialer) DialStream(addr string) (mtp.PacketConn, error) {
	c, err := d.inner.DialStream(addr)
	if err != nil {
		return nil, err
	}
	return d.t.packetConn(c, d.lane, false), nil
}

// receiverConn traces a stream receiver's conn: time blocked in Recv.
func (t *tracer) receiverConn(c mtp.PacketConn, lane int) mtp.PacketConn {
	if t == nil {
		return c
	}
	return t.packetConn(c, uint8(lane), true)
}

// packetConn wraps an MTP conn, exposing exactly the optional interfaces
// the wrapped conn implements, so the sender keeps its vectored, batched
// and feedback paths and the SPA still closes the socket.
func (t *tracer) packetConn(inner mtp.PacketConn, lane uint8, receiver bool) mtp.PacketConn {
	c := &tracedPacketConn{inner: inner, t: t, lane: lane, receiver: receiver}
	vc, hasV := inner.(mtp.VecConn)
	bc, hasB := inner.(mtp.BatchConn)
	tr, hasT := inner.(mtp.TryRecver)
	cl, hasC := inner.(io.Closer)
	var (
		v mtp.VecConn   = vecPart{c, vc}
		b mtp.BatchConn = batchConnPart{c, bc}
	)
	type (
		V = mtp.VecConn
		B = mtp.BatchConn
		T = mtp.TryRecver
		C = io.Closer
	)
	switch mask(hasV, hasB, hasT, hasC) {
	case 0b0000:
		return c
	case 0b0001:
		return struct {
			*tracedPacketConn
			C
		}{c, cl}
	case 0b0010:
		return struct {
			*tracedPacketConn
			T
		}{c, tr}
	case 0b0011:
		return struct {
			*tracedPacketConn
			T
			C
		}{c, tr, cl}
	case 0b0100:
		return struct {
			*tracedPacketConn
			B
		}{c, b}
	case 0b0101:
		return struct {
			*tracedPacketConn
			B
			C
		}{c, b, cl}
	case 0b0110:
		return struct {
			*tracedPacketConn
			B
			T
		}{c, b, tr}
	case 0b0111:
		return struct {
			*tracedPacketConn
			B
			T
			C
		}{c, b, tr, cl}
	case 0b1000:
		return struct {
			*tracedPacketConn
			V
		}{c, v}
	case 0b1001:
		return struct {
			*tracedPacketConn
			V
			C
		}{c, v, cl}
	case 0b1010:
		return struct {
			*tracedPacketConn
			V
			T
		}{c, v, tr}
	case 0b1011:
		return struct {
			*tracedPacketConn
			V
			T
			C
		}{c, v, tr, cl}
	case 0b1100:
		return struct {
			*tracedPacketConn
			V
			B
		}{c, v, b}
	case 0b1101:
		return struct {
			*tracedPacketConn
			V
			B
			C
		}{c, v, b, cl}
	case 0b1110:
		return struct {
			*tracedPacketConn
			V
			B
			T
		}{c, v, b, tr}
	default:
		return struct {
			*tracedPacketConn
			V
			B
			T
			C
		}{c, v, b, tr, cl}
	}
}

type tracedPacketConn struct {
	inner    mtp.PacketConn
	t        *tracer
	lane     uint8
	receiver bool
}

// Send is the sender's copy path and its end-of-stream markers; only the
// former carry a frame.
func (c *tracedPacketConn) Send(p []byte) error {
	if c.receiver {
		return c.inner.Send(p)
	}
	start := c.t.now()
	err := c.inner.Send(p)
	n := 0
	if len(p) > mtp.HeaderSize {
		n = 1
	}
	c.t.record(span{start: start, end: c.t.now(), n: int32(n), kind: kPktSend, lane: c.lane, err: err != nil})
	return err
}

func (c *tracedPacketConn) Recv() ([]byte, error) {
	if !c.receiver {
		return c.inner.Recv()
	}
	start := c.t.now()
	p, err := c.inner.Recv()
	c.t.record(span{start: start, end: c.t.now(), n: 1, kind: kRecvWait, lane: c.lane})
	return p, err
}

type vecPart struct {
	c  *tracedPacketConn
	vc mtp.VecConn
}

func (p vecPart) SendVec(hdr, payload []byte) error {
	start := p.c.t.now()
	err := p.vc.SendVec(hdr, payload)
	p.c.t.record(span{start: start, end: p.c.t.now(), n: 1, kind: kPktSendVec, lane: p.c.lane, err: err != nil})
	return err
}

type batchConnPart struct {
	c  *tracedPacketConn
	bc mtp.BatchConn
}

func (p batchConnPart) SendBatch(pkts []mtp.PacketVec) error {
	start := p.c.t.now()
	err := p.bc.SendBatch(pkts)
	p.c.t.record(span{start: start, end: p.c.t.now(), n: int32(len(pkts)), kind: kPktSendBatch, lane: p.c.lane, err: err != nil})
	return err
}
