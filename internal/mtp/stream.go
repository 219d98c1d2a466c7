package mtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"xmovie/internal/timewheel"
)

// ErrFrameUnavailable is returned (possibly wrapped) by a FrameSource whose
// current frame could not be produced in time — a slow or wedged storage
// read behind a bounded-read wrapper. The source must have consumed the
// frame's position (Pos advanced past it) before returning it. The sender
// degrades instead of aborting: the frame is booked as an adaptive drop and
// the next transmitted frame carries FlagSkip, so one slow read costs the
// receiver one lost frame, not the stream.
var ErrFrameUnavailable = errors.New("mtp: frame unavailable")

// FrameSource is the lazy frame iterator the stream sender pulls from — a
// structural subset of moviedb.FrameSource, so movie-database sources plug
// in directly without mtp depending on the database layer.
//
// Next's result is only valid until the next Next/Seek call (sources
// recycle chunk buffers); the sender finishes delivering each frame to the
// conn — which must consume the bytes before Send/SendVec returns — before
// pulling the next, so the contract composes with PacketConn's.
type FrameSource interface {
	// Len returns the total number of frames.
	Len() int64
	// Pos returns the index of the frame the next Next call will return.
	Pos() int64
	// Next returns the next frame, or io.EOF when exhausted.
	Next() ([]byte, error)
	// Seek repositions the source to frame pos.
	SeekTo(pos int64) error
}

// BatchSource is an optional FrameSource extension for write batching:
// NextBatch returns up to max consecutive frames that are available RIGHT
// NOW from resident memory — the remainder of a loaded chunk, or stored
// in-memory frames — advancing the position past them. It never blocks,
// never performs I/O, and never waits at a live edge; when nothing is
// immediately available it returns an empty batch and the caller falls
// back to Next for the following frame.
//
// Unlike Next, whose result dies at the following call, every returned
// frame remains valid until the NEXT Next/NextBatch/SeekTo/Close call on
// the source (they alias one resident chunk, which stays loaded until the
// cursor moves on). That extended lifetime is what lets the sender hand
// the whole batch to a BatchConn as one vectored write.
type BatchSource interface {
	NextBatch(max int) [][]byte
}

// EdgeWaiter is implemented by frame sources whose Next can block waiting
// at the live edge of a movie that is still being recorded. TakeWaited
// returns — and resets — the cumulative time Next spent blocked since the
// previous call. The sender books that time like a pause: it shifts the
// pacing schedule, so waiting for the producer is never misread as the
// stream running late (which would trigger adaptive drops of perfectly
// fresh frames).
type EdgeWaiter interface {
	TakeWaited() time.Duration
}

// Feedback is the receiver→sender report carried in FlagFB packets: the
// receiver's cumulative progress and its credit grant. It is MTP's only
// upstream traffic — a few octets every FeedbackEvery frames — and it
// never triggers retransmission; the sender uses it solely to decide which
// frames not to send (XMovie-style rate adaptation: late video is worse
// than lost video).
//
// Buffer lifetime: feedback packets obey the PacketConn contract like any
// other packet. The receiver marshals reports into one buffer reused
// across sends (conn.Send must not retain it), and the sender parses them
// in place out of TryRecv's buffer (valid only until the next receive), so
// neither side allocates per report.
type Feedback struct {
	// NextSeq is the receiver's next expected in-order sequence number —
	// cumulative progress in sequence space.
	NextSeq uint32
	// Delivered and Lost are the receiver's running frame counters.
	Delivered uint32
	Lost      uint32
	// Window is the receiver's credit grant: how many packets beyond
	// NextSeq it is prepared to absorb.
	Window uint32
}

// feedbackSize is the fixed FlagFB payload length.
const feedbackSize = 16

// syncRepeats is how many consecutive transmitted frames carry FlagSync
// after a discontinuity, so the announcement survives loss like the EOS
// marker does. The receiver uses the same constant to recognize reordered
// members of one burst and not resync twice.
const syncRepeats = 3

// maxCoalesce bounds how many due frames one Run iteration may coalesce
// into a single batched write. It caps batch memory (headers live in one
// fixed arena), bounds control latency (stop/pause/seek and feedback are
// only observed between batches), and stays under typical sendmmsg sweet
// spots.
const maxCoalesce = 32

// appendFeedbackPayload writes the 16-octet feedback encoding.
func (fb *Feedback) appendPayload(dst []byte) []byte {
	var b [feedbackSize]byte
	binary.BigEndian.PutUint32(b[0:], fb.NextSeq)
	binary.BigEndian.PutUint32(b[4:], fb.Delivered)
	binary.BigEndian.PutUint32(b[8:], fb.Lost)
	binary.BigEndian.PutUint32(b[12:], fb.Window)
	return append(dst, b[:]...)
}

// ParseFeedback decodes a FlagFB packet's payload in place. It reads from
// the packet's payload (which aliases the conn's receive buffer) and
// copies everything it needs into the returned struct, so the result
// outlives the buffer.
func ParseFeedback(p *Packet) (Feedback, bool) {
	if p.Flags&FlagFB == 0 || len(p.Payload) < feedbackSize {
		return Feedback{}, false
	}
	return Feedback{
		NextSeq:   binary.BigEndian.Uint32(p.Payload[0:]),
		Delivered: binary.BigEndian.Uint32(p.Payload[4:]),
		Lost:      binary.BigEndian.Uint32(p.Payload[8:]),
		Window:    binary.BigEndian.Uint32(p.Payload[12:]),
	}, true
}

// Throttle regulates a sender's outbound bandwidth. Reserve books n bytes
// against the budget and returns how long the caller must wait before
// sending them (0 = send now); it never refuses. Implementations must be
// safe for concurrent use — one throttle is typically shared by every
// stream of a tenant, so the streams split the budget between them.
// qos.Limiter is the token-bucket implementation.
type Throttle interface {
	Reserve(n int) time.Duration
}

// StreamConfig tunes one StreamSender.
type StreamConfig struct {
	StreamID uint32
	// FrameRate paces transmission; 0 sends as fast as possible.
	FrameRate int
	// EOSRepeats re-sends the end-of-stream marker to survive loss
	// (0 = 3; negative suppresses EOS).
	EOSRepeats int
	// Window enables credit-based adaptive delivery: the sender keeps at
	// most Window transmitted frames unacknowledged by receiver feedback
	// (capped further by the receiver's own credit grant once reported).
	// A frame whose send slot arrives with no credit — or that is already
	// more than one period overdue — is dropped (its sequence number is
	// consumed, so the receiver accounts it as lost) instead of being
	// sent late. 0 disables adaptation: every frame is sent.
	//
	// Window > 0 assumes the receiver emits feedback
	// (ReceiverConfig.FeedbackEvery); lost or absent feedback shrinks the
	// sender's view of its credit, which is exactly the congestion signal
	// that triggers dropping. Only then does the sender poll the conn for
	// feedback: with Window == 0 nothing reads it, so the per-frame poll
	// (a receive syscall that almost always finds nothing) is skipped.
	Window int
	// Throttle, when non-nil, caps outbound bandwidth: each transmitted
	// frame reserves its bytes before the send, and the imposed wait shifts
	// the pacing schedule like a pause — a capped stream slows down, its
	// frames are never booked as late and never trigger adaptive drops.
	// Dropped frames reserve nothing.
	Throttle Throttle
	// Sleep substitutes the pacing wait (tests); nil uses a stoppable
	// timer wait.
	Sleep func(time.Duration)
}

// StreamStats summarizes one stream transmission, including the adaptive
// path's decisions.
type StreamStats struct {
	// Sent counts frames actually transmitted; Dropped counts frames the
	// adaptive path skipped (no credit, or overdue). Sent + Dropped is the
	// number of frames consumed from the source.
	Sent    int
	Dropped int
	// Late counts transmitted frames that left more than one period past
	// their deadline.
	Late  int
	Bytes int64
	// Feedback counts receiver reports processed (always 0 without a
	// Window: feedback is only read when it drives adaptation).
	Feedback int
	// Pos is the source position reached (next frame index).
	Pos int64
	// Done reports normal completion (EOF reached, not stopped/errored).
	Done    bool
	Elapsed time.Duration
}

// StreamSender transmits a FrameSource over MTP with live control: it can
// be paused, resumed, repositioned and stopped from other goroutines while
// Run is in flight, and it adapts its delivery to receiver feedback. It is
// the transmission engine a Stream Provider Agent drives — one sender per
// stream.
type StreamSender struct {
	conn PacketConn
	cfg  StreamConfig

	stopOnce sync.Once
	stopCh   chan struct{}

	mu       sync.Mutex
	paused   bool
	resumeCh chan struct{} // non-nil while paused; closed by Resume/Stop
	seekTo   int64         // pending reposition; -1 when none
	fbNext   uint32        // latest receiver progress (next expected seq)
	fbWindow uint32        // latest receiver credit grant (0 = none seen)
	stats    StreamStats
}

// NewStreamSender prepares a sender; Run performs the transmission.
func NewStreamSender(conn PacketConn, cfg StreamConfig) *StreamSender {
	switch {
	case cfg.EOSRepeats == 0:
		cfg.EOSRepeats = 3
	case cfg.EOSRepeats < 0:
		cfg.EOSRepeats = 0
	}
	return &StreamSender{conn: conn, cfg: cfg, stopCh: make(chan struct{}), seekTo: -1}
}

// Pause suspends transmission at frame granularity. Idempotent.
func (s *StreamSender) Pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.paused {
		s.paused = true
		s.resumeCh = make(chan struct{})
	}
}

// Resume continues a paused transmission; paused time shifts the pacing
// schedule rather than producing a burst of "late" frames. Idempotent.
func (s *StreamSender) Resume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resumeLocked()
}

func (s *StreamSender) resumeLocked() {
	if s.paused {
		s.paused = false
		close(s.resumeCh)
		s.resumeCh = nil
	}
}

// Seek schedules a live reposition: the stream continues from frame pos
// without restarting, and the first frame sent afterwards carries FlagSync
// so the receiver resynchronizes instead of counting the jump as loss.
// The position is validated against the source when the loop picks it up.
func (s *StreamSender) SeekTo(pos int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seekTo = pos
}

// Stop aborts the transmission; Run returns after terminating the stream
// on the wire. Safe to call from any goroutine, idempotent.
func (s *StreamSender) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resumeLocked() // a paused stream must observe the stop
}

// Position returns the source position reached so far.
func (s *StreamSender) Position() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Pos
}

// Stats returns a snapshot of the transmission counters.
func (s *StreamSender) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// wait sleeps for d or until Stop; it reports false when stopped. The wait
// runs on the process-wide timer wheel, so ten thousand paced streams cost
// one tick timer between them instead of one runtime timer each. The
// wheel returns at the first tick boundary at or after now+d: never
// early, at most one tick (~1ms) plus its wake-up latency late. Pacing
// callers clock the actual sleep, so that residual shifts the schedule
// instead of accumulating as drift. Throttle-imposed waits come through
// here too, which is how the spa bandwidth caps share the wheel.
func (s *StreamSender) wait(d time.Duration) bool {
	if s.cfg.Sleep != nil {
		s.cfg.Sleep(d)
		return true
	}
	return timewheel.Default().Wait(d, s.stopCh)
}

// stopped reports whether Stop was called.
func (s *StreamSender) stopped() bool {
	select {
	case <-s.stopCh:
		return true
	default:
		return false
	}
}

// drainFeedback consumes any pending receiver reports without blocking.
func (s *StreamSender) drainFeedback(tr TryRecver) {
	var p Packet
	for {
		data, ok := tr.TryRecv()
		if !ok {
			return
		}
		if p.Unmarshal(data) != nil || p.Flags&FlagFB == 0 || p.StreamID != s.cfg.StreamID {
			continue
		}
		fb, ok := ParseFeedback(&p)
		if !ok {
			continue
		}
		s.mu.Lock()
		// Sequence space is monotone within a stream segment, but a seek
		// moves it arbitrarily; accept the newest report unconditionally
		// and let the credit check clamp negative spans.
		s.fbNext = fb.NextSeq
		s.fbWindow = fb.Window
		s.stats.Feedback++
		s.mu.Unlock()
	}
}

// Run transmits src until EOF, Stop, or a conn error, honouring
// pause/resume/seek and — when cfg.Window > 0 — receiver credit. It blocks
// for the stream's duration; control methods are called from other
// goroutines. The source is advanced in place; Seq equals source frame
// index throughout, so StartSeq-style resumption is just opening the
// source at the right position.
func (s *StreamSender) Run(src FrameSource) (StreamStats, error) {
	var period time.Duration
	if s.cfg.FrameRate > 0 {
		period = time.Second / time.Duration(s.cfg.FrameRate)
	}
	var tr TryRecver
	if s.cfg.Window > 0 {
		tr, _ = s.conn.(TryRecver)
	}
	ew, _ := src.(EdgeWaiter)
	vc, _ := s.conn.(VecConn)
	bc, _ := s.conn.(BatchConn)
	bs, _ := src.(BatchSource)

	bufp := sendBufPool.Get().(*[]byte)
	buf := *bufp
	defer func() { putSendBuf(bufp, buf) }()
	// hdrArena holds the batch's marshalled headers; its capacity is fixed
	// so PacketVec.Hdr slices into it stay valid as the batch grows.
	hdrArena := make([]byte, 0, maxCoalesce*HeaderSize)
	pkts := make([]PacketVec, 0, maxCoalesce)

	start := time.Now()
	var pausedTotal time.Duration
	var slot int64 // pacing slot index since the current epoch
	// A sequence discontinuity is announced on the next syncRepeats
	// transmitted frames, not just one: FlagSync is what keeps a seek from
	// being misread as loss, so it must survive a lossy path the same way
	// the EOS marker does (only the first arrival resynchronizes; the
	// rest are in-order no-ops at the receiver).
	syncLeft := 0
	if src.Pos() != 0 {
		syncLeft = syncRepeats
	}
	// inflight tracks the sequence numbers actually transmitted and not
	// yet covered by receiver feedback — dropped frames consume sequence
	// space but no credit. skipPending marks that the next transmitted
	// frame follows a drop gap.
	var inflight []uint32
	if s.cfg.Window > 0 {
		inflight = make([]uint32, 0, s.cfg.Window)
	}
	skipPending := false
	s.mu.Lock()
	s.stats.Pos = src.Pos()
	s.fbNext = uint32(src.Pos())
	s.mu.Unlock()

	finish := func(err error) (StreamStats, error) {
		// Terminate the stream on the wire even when aborted, so the
		// receiver does not wait for frames that will never come. A
		// not-yet-announced discontinuity (a seek straight to EOF sends
		// no further data frame) rides on the EOS markers as FlagSync, so
		// the receiver ends cleanly instead of booking the jump as loss.
		pos := src.Pos()
		flags := FlagEOS
		if syncLeft > 0 {
			flags |= FlagSync
		}
		for i := 0; i < s.cfg.EOSRepeats; i++ {
			p := Packet{StreamID: s.cfg.StreamID, Seq: uint32(pos), Flags: flags}
			var merr error
			buf, merr = p.Marshal(buf[:0])
			if merr == nil {
				if serr := s.conn.Send(buf); serr != nil && err == nil {
					err = fmt.Errorf("mtp: send EOS: %w", serr)
					break
				}
			}
		}
		s.mu.Lock()
		s.stats.Pos = pos
		s.stats.Elapsed = time.Since(start)
		s.stats.Done = err == nil && !s.stopped()
		st := s.stats
		s.mu.Unlock()
		return st, err
	}

	for {
		if s.stopped() {
			return finish(nil)
		}
		// Pause: block until resumed or stopped; paused time shifts the
		// schedule.
		s.mu.Lock()
		resumeCh := s.resumeCh
		s.mu.Unlock()
		if resumeCh != nil {
			pauseStart := time.Now()
			select {
			case <-resumeCh:
				pausedTotal += time.Since(pauseStart)
			case <-s.stopCh:
				return finish(nil)
			}
			continue
		}
		// Seek: reposition the source and restart the pacing epoch. The
		// next frame out carries FlagSync.
		s.mu.Lock()
		seekTo := s.seekTo
		s.seekTo = -1
		s.mu.Unlock()
		if seekTo >= 0 {
			if err := src.SeekTo(seekTo); err != nil {
				return finish(fmt.Errorf("mtp: seek: %w", err))
			}
			start = time.Now()
			slot = 0
			pausedTotal = 0
			syncLeft = syncRepeats
			// The sync covers any drop gap, and the old in-flight frames
			// belong to the abandoned segment.
			skipPending = false
			inflight = inflight[:0]
			s.mu.Lock()
			s.stats.Pos = seekTo
			s.fbNext = uint32(seekTo)
			s.mu.Unlock()
		}

		pos := src.Pos()
		frame, err := src.Next()
		if ew != nil {
			// Time blocked at the live edge shifts the pacing schedule the
			// way a pause does: the frame did not exist yet, so the stream
			// is not late.
			pausedTotal += ew.TakeWaited()
		}
		if err == io.EOF {
			return finish(nil)
		}
		if errors.Is(err, ErrFrameUnavailable) {
			// Graceful degradation: the source consumed the frame's
			// position but could not produce its bytes in time. Book it
			// like an adaptive drop — sequence space is consumed, the next
			// transmitted frame carries FlagSkip — and keep the stream
			// alive.
			slot++
			skipPending = true
			s.mu.Lock()
			s.stats.Dropped++
			s.stats.Pos = src.Pos()
			s.mu.Unlock()
			continue
		}
		if err != nil {
			return finish(fmt.Errorf("mtp: frame source: %w", err))
		}

		// Pacing: frame slot departs at epoch + slot*period (+ pause).
		overdue := time.Duration(0)
		if period > 0 {
			due := start.Add(time.Duration(slot)*period + pausedTotal)
			now := time.Now()
			if wait := due.Sub(now); wait > 0 {
				if !s.wait(wait) {
					return finish(nil)
				}
			} else {
				overdue = now.Sub(due)
			}
		}
		slot++

		if tr != nil {
			s.drainFeedback(tr)
		}

		// Adaptive delivery: with a window configured, at most Window
		// transmitted frames may be unacknowledged by feedback. A frame
		// whose slot arrives with the window full — or already a full
		// period overdue — is dropped: its sequence number is consumed
		// (the next transmitted frame carries FlagSkip so the receiver
		// jumps the gap and accounts it as lost) but no credit is, so
		// congestion throttles transmission without wedging it.
		creditLeft := -1 // -1: no window configured (unlimited)
		if s.cfg.Window > 0 {
			s.mu.Lock()
			fbNext, fbWindow := s.fbNext, s.fbWindow
			s.mu.Unlock()
			k := 0
			for _, q := range inflight {
				if int32(q-fbNext) >= 0 {
					inflight[k] = q
					k++
				}
			}
			inflight = inflight[:k]
			// The effective window is the configured one capped by the
			// receiver's credit grant, once it has reported one.
			window := s.cfg.Window
			if fbWindow > 0 && int(fbWindow) < window {
				window = int(fbWindow)
			}
			if len(inflight) >= window || (period > 0 && overdue > period) {
				skipPending = true
				s.mu.Lock()
				s.stats.Dropped++
				s.stats.Pos = pos + 1
				s.mu.Unlock()
				continue
			}
			creditLeft = window - len(inflight) - 1
		}

		// Coalesce: when the conn takes vectors and the source can serve
		// further already-due frames straight from resident memory, send
		// them as one batch — unpaced streams batch maximally; paced
		// streams only coalesce slots whose departure time has passed, so
		// an on-schedule stream still sends frame by frame. Credit caps the
		// batch; control (stop/pause/seek/feedback) is re-checked each loop
		// iteration, so a batch bounds control latency by maxCoalesce
		// frames.
		extraWant := 0
		if bs != nil && (vc != nil || bc != nil) {
			switch {
			case period == 0:
				extraWant = maxCoalesce - 1
			case overdue > 0:
				extraWant = int(overdue / period)
				if extraWant > maxCoalesce-1 {
					extraWant = maxCoalesce - 1
				}
			}
			if creditLeft >= 0 && extraWant > creditLeft {
				extraWant = creditLeft
			}
		}
		var extras [][]byte
		if extraWant > 0 {
			extras = bs.NextBatch(extraWant)
		}
		nb := 1 + len(extras)
		total := int64(len(frame))
		for _, f := range extras {
			total += int64(len(f))
		}

		// Bandwidth cap: reserve the batch's bytes and absorb the imposed
		// wait into the pacing epoch (like a pause), so a capped stream
		// shifts its schedule instead of accumulating lateness. The batch
		// payloads stay valid across the wait — nothing touches the source
		// until the next iteration.
		if s.cfg.Throttle != nil && total > 0 {
			if d := s.cfg.Throttle.Reserve(int(total)); d > 0 {
				// Credit the measured wait, not the requested one: timer
				// overshoot would otherwise accumulate as phantom lateness.
				capStart := time.Now()
				if !s.wait(d) {
					return finish(nil)
				}
				pausedTotal += time.Since(capStart)
			}
		}
		if period > 0 {
			// Each batch member is late if it departs more than one period
			// past its own slot; member j's slot is j periods after frame
			// 0's.
			lateN := 0
			for j := 0; j < nb; j++ {
				if overdue-time.Duration(j)*period > period {
					lateN++
				}
			}
			if lateN > 0 {
				s.mu.Lock()
				s.stats.Late += lateN
				s.mu.Unlock()
			}
		}

		// Build the batch: one header per frame in the arena, payloads
		// untouched (they alias the source's resident chunk until the next
		// source call — the conn must consume them before returning).
		hdrArena = hdrArena[:0]
		pkts = pkts[:0]
		for j := 0; j < nb; j++ {
			f := frame
			if j > 0 {
				f = extras[j-1]
			}
			fpos := pos + int64(j)
			var tsMicro uint64
			if s.cfg.FrameRate > 0 {
				tsMicro = uint64(fpos) * uint64(time.Second/time.Microsecond) / uint64(s.cfg.FrameRate)
			}
			p := Packet{
				StreamID: s.cfg.StreamID,
				Seq:      uint32(fpos),
				TSMicro:  tsMicro,
				Payload:  f,
			}
			if syncLeft > 0 {
				p.Flags |= FlagSync
				syncLeft--
			}
			if j == 0 && skipPending {
				p.Flags |= FlagSkip
				skipPending = false
			}
			at := len(hdrArena)
			hdrArena, err = p.MarshalHeader(hdrArena)
			if err != nil {
				return finish(err)
			}
			pkts = append(pkts, PacketVec{Hdr: hdrArena[at:], Payload: f})
		}

		// Deliver: one sendmmsg-style call for a coalesced batch, a
		// vectored send per packet otherwise, and the marshal-copy fallback
		// for conns without vector support.
		switch {
		case bc != nil && len(pkts) > 1:
			if err := bc.SendBatch(pkts); err != nil {
				return finish(fmt.Errorf("mtp: send seq %d..%d: %w", pos, pos+int64(nb)-1, err))
			}
			batchSends.Add(1)
			batchFrames.Add(int64(nb))
			vecSends.Add(int64(nb))
			vecBytes.Add(total)
		case vc != nil:
			for j, pk := range pkts {
				if err := vc.SendVec(pk.Hdr, pk.Payload); err != nil {
					return finish(fmt.Errorf("mtp: send seq %d: %w", pos+int64(j), err))
				}
			}
			if nb > 1 {
				// Still one coalesced group — the source-side batching
				// happened — delivered as nb vectored calls because the
				// conn lacks a true batch entry point.
				batchSends.Add(1)
				batchFrames.Add(int64(nb))
			}
			vecSends.Add(int64(nb))
			vecBytes.Add(total)
		default:
			for j, pk := range pkts {
				var serr error
				buf, serr = sendVecFallback(s.conn, buf, pk.Hdr, pk.Payload)
				if serr != nil {
					return finish(fmt.Errorf("mtp: send seq %d: %w", pos+int64(j), serr))
				}
			}
			copySends.Add(int64(nb))
		}
		if s.cfg.Window > 0 {
			for j := 0; j < nb; j++ {
				inflight = append(inflight, uint32(pos+int64(j)))
			}
		}
		slot += int64(nb - 1) // frame 0's slot was consumed above
		s.mu.Lock()
		s.stats.Sent += nb
		s.stats.Bytes += total
		s.stats.Pos = pos + int64(nb)
		s.mu.Unlock()
	}
}
