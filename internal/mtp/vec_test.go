package mtp

import (
	"bytes"
	"io"
	"testing"
	"time"

	"xmovie/internal/moviedb"
	"xmovie/internal/netsim"
)

// countingConn counts conn entry points and copies every delivered
// datagram, so tests can assert both the syscall shape (calls per batch)
// and the delivered bytes.
type countingConn struct {
	sends      int // plain Send calls
	vecSends   int // SendVec calls
	batchCalls int // SendBatch calls
	delivered  [][]byte
}

func (c *countingConn) deliver(hdr, payload []byte) {
	buf := make([]byte, 0, len(hdr)+len(payload))
	buf = append(buf, hdr...)
	buf = append(buf, payload...)
	c.delivered = append(c.delivered, buf)
}

func (c *countingConn) Send(p []byte) error {
	c.sends++
	c.deliver(p, nil)
	return nil
}

func (c *countingConn) Recv() ([]byte, error) { panic("countingConn.Recv") }

func (c *countingConn) SendVec(hdr, payload []byte) error {
	c.vecSends++
	c.deliver(hdr, payload)
	return nil
}

func (c *countingConn) SendBatch(pkts []PacketVec) error {
	c.batchCalls++
	for _, p := range pkts {
		c.deliver(p.Hdr, p.Payload)
	}
	return nil
}

// vecOnlyConn is a countingConn without the batch entry point, to exercise
// the SendVec-loop fallback.
type vecOnlyConn struct{ countingConn }

func (c *vecOnlyConn) SendBatch([]PacketVec) error { panic("unexpected SendBatch") }

var (
	_ VecConn   = (*countingConn)(nil)
	_ BatchConn = (*countingConn)(nil)
)

// TestSendVecConsumesBeforeReturn pins the SendVec aliasing contract on
// the real conns: the slices are consumed before the call returns, so a
// caller scribbling both buffers immediately afterwards — exactly what a
// sender reusing its header arena and a storage layer recycling a chunk
// do — cannot corrupt the datagram already on the wire. It also verifies
// the conn never writes into the payload (which on the real stack is an
// immutable cache chunk).
func TestSendVecConsumesBeforeReturn(t *testing.T) {
	mk := func() ([]byte, []byte) {
		hdr := bytes.Repeat([]byte{0xAA}, HeaderSize)
		payload := make([]byte, 1500)
		for i := range payload {
			payload[i] = byte(i)
		}
		return hdr, payload
	}
	check := func(t *testing.T, send func(hdr, payload []byte) error, recv func() ([]byte, error)) {
		hdr, payload := mk()
		want := append(append([]byte(nil), hdr...), payload...)
		if err := send(hdr, payload); err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			if payload[i] != byte(i) {
				t.Fatal("conn wrote into the payload (would corrupt the cache chunk)")
			}
		}
		// Scribble both buffers the instant SendVec returns.
		for i := range hdr {
			hdr[i] = 0xFF
		}
		for i := range payload {
			payload[i] = 0xFF
		}
		got, err := recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("delivered datagram corrupted by post-return mutation: conn retained the slices")
		}
	}

	t.Run("netsim", func(t *testing.T) {
		a, b, link := netsim.NewPerfectLink()
		defer link.Close()
		check(t, a.SendVec, b.Recv)
	})
	t.Run("udp", func(t *testing.T) {
		lis, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback UDP:", err)
		}
		defer lis.Close()
		conn, err := DialUDP(lis.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		check(t, conn.SendVec, lis.Recv)
	})
	t.Run("udp-batch", func(t *testing.T) {
		lis, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback UDP:", err)
		}
		defer lis.Close()
		conn, err := DialUDP(lis.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Three datagrams in one sendmmsg; scribble after the call; all
		// three must arrive intact and in order.
		var pkts []PacketVec
		var want [][]byte
		for i := 0; i < 3; i++ {
			hdr := bytes.Repeat([]byte{byte(0x10 + i)}, HeaderSize)
			payload := bytes.Repeat([]byte{byte(0x20 + i)}, 400+100*i)
			pkts = append(pkts, PacketVec{Hdr: hdr, Payload: payload})
			want = append(want, append(append([]byte(nil), hdr...), payload...))
		}
		if err := conn.SendBatch(pkts); err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			for i := range p.Hdr {
				p.Hdr[i] = 0xFF
			}
			for i := range p.Payload {
				p.Payload[i] = 0xFF
			}
		}
		for i := range want {
			got, err := lis.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("batched datagram %d corrupted or reordered", i)
			}
		}
	})
}

// TestZeroCopySendCachePristine streams a disk movie — whose frame slices
// alias immutable chunk-cache chunks — through the vectored send path,
// verifies every delivered frame byte-identical to what was stored, and
// then re-reads the movie to prove the resident chunks survived the sends
// untouched: the zero-copy path hands cache memory to the conn without
// ever exposing it to mutation.
func TestZeroCopySendCachePristine(t *testing.T) {
	store, err := moviedb.OpenDiskStore(t.TempDir(), moviedb.DiskConfig{ChunkFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Create(&moviedb.Movie{Name: "pristine"}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.Record("pristine")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 64
	want := make([][]byte, frames)
	for i := range want {
		f := make([]byte, 700)
		for j := range f {
			f[j] = byte(i*31 + j)
		}
		want[i] = f
		if _, err := rec.Append([][]byte{f}); err != nil {
			t.Fatal(err)
		}
	}
	rec.Close()
	m, err := store.Get("pristine")
	if err != nil {
		t.Fatal(err)
	}

	a, b, link := netsim.NewPerfectLink()
	defer link.Close()
	src := m.Open()
	recvDone := make(chan error, 1)
	var got [][]byte
	go func() {
		_, err := ReceiveStream(b, ReceiverConfig{}, func(f Frame) {
			got = append(got, append([]byte(nil), f.Payload...))
		})
		recvDone <- err
	}()
	sender := NewStreamSender(a, StreamConfig{StreamID: 9})
	st, err := sender.Run(src)
	if err != nil || st.Sent != frames {
		t.Fatalf("run: sent %d, err %v", st.Sent, err)
	}
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver wedged")
	}
	if len(got) != frames {
		t.Fatalf("delivered %d frames, want %d", len(got), frames)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("delivered frame %d corrupted", i)
		}
	}
	// The cache chunks the payloads aliased must be pristine: a second
	// reader sees the stored bytes.
	src2 := m.Open()
	for i := 0; i < frames; i++ {
		f, err := src2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f, want[i]) {
			t.Fatalf("cache chunk corrupted at frame %d after zero-copy sends", i)
		}
	}
	if c, ok := src2.(io.Closer); ok {
		c.Close()
	}
}

// TestBatchedSendSyscalls pins the write-coalescing shape: an unpaced
// stream over a batch-capable conn must cost one SendBatch call per
// maxCoalesce frames — the "≤1 write syscall per coalesced batch"
// acceptance bound — with plain Send used only for the EOS markers.
func TestBatchedSendSyscalls(t *testing.T) {
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 1024)
	}
	src := moviedb.SliceContent(frames).Open()
	conn := &countingConn{}
	st, err := NewStreamSender(conn, StreamConfig{StreamID: 1}).Run(src)
	if err != nil || st.Sent != 64 {
		t.Fatalf("sent %d, err %v", st.Sent, err)
	}
	wantBatches := (64 + maxCoalesce - 1) / maxCoalesce
	if conn.batchCalls != wantBatches {
		t.Fatalf("64 unpaced frames cost %d SendBatch calls, want %d", conn.batchCalls, wantBatches)
	}
	if conn.vecSends != 0 {
		t.Fatalf("unexpected %d per-frame SendVec calls alongside batching", conn.vecSends)
	}
	if conn.sends != 3 {
		t.Fatalf("plain Send calls = %d, want 3 (EOS markers only)", conn.sends)
	}
	if len(conn.delivered) != 64+3 {
		t.Fatalf("delivered %d datagrams", len(conn.delivered))
	}
	// Spot-check wire integrity of a batched frame.
	var p Packet
	if err := p.Unmarshal(conn.delivered[40]); err != nil {
		t.Fatal(err)
	}
	if p.Seq != 40 || !bytes.Equal(p.Payload, frames[40]) {
		t.Fatalf("batched frame 40 mangled: seq %d", p.Seq)
	}

	// Without a batch entry point the same stream degrades to one
	// vectored call per frame — still zero-copy, never a regression to
	// the marshal path.
	src2 := moviedb.SliceContent(frames).Open()
	vconn := &vecOnlyConn{}
	st, err = NewStreamSender(&struct {
		PacketConn
		VecConn
	}{vconn, vconn}, StreamConfig{StreamID: 1}).Run(src2)
	if err != nil || st.Sent != 64 {
		t.Fatalf("sent %d, err %v", st.Sent, err)
	}
	if vconn.vecSends != 64 {
		t.Fatalf("vec-only conn saw %d SendVec calls, want 64", vconn.vecSends)
	}
}

// TestBatchedSendAllocs is the allocation guard for the coalesced send
// path: pulling batches from a resident source and fanning them into a
// batch conn must not allocate per frame — only per-Run setup (sender,
// arenas, batch slice warm-up) may.
func TestBatchedSendAllocs(t *testing.T) {
	frames := make([][]byte, 256)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	src := moviedb.SliceContent(frames).Open()
	conn := &countingConn{}
	run := func() {
		if err := src.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		conn.delivered = conn.delivered[:0]
		s := NewStreamSender(conn, StreamConfig{StreamID: 1})
		st, err := s.Run(src)
		if err != nil || st.Sent != 256 {
			t.Fatalf("sent %d, err %v", st.Sent, err)
		}
	}
	run() // warm pools and the source's batch slice
	allocs := testing.AllocsPerRun(20, func() {
		// The counting conn's per-datagram copy is test instrumentation,
		// not the path under guard; it is the only allocator in deliver.
		run()
	})
	// Per-Run setup: sender + stop channel + header arena + packet slice +
	// conn bookkeeping. 256 frames through the loop must add nothing
	// beyond the counting conn's own per-datagram copies (259) — so the
	// bound is setup (<=8) + instrumentation (259).
	if allocs > 8+259 {
		t.Fatalf("batched send path allocates %.1f per 256-frame run, want <= %d", allocs, 8+259)
	}
}

// TestRealUDPAllocs is the allocation guard for the real socket path: on
// a loopback UDP pair, the sender's vectored and batched sends, its
// non-blocking feedback poll (empty and with a datagram queued), and the
// listener's receive and feedback reply must each allocate nothing. The
// netsim and fake-conn guards cannot see these: the cost lives in the
// net/syscall glue (SyscallConn, escaping callbacks, sockaddrs).
func TestRealUDPAllocs(t *testing.T) {
	const runs = 50
	lis, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback UDP:", err)
	}
	defer lis.Close()
	conn, err := DialUDP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := bytes.Repeat([]byte{0x11}, HeaderSize)
	payload := bytes.Repeat([]byte{0x22}, 1024)
	pkts := make([]PacketVec, 4)
	for i := range pkts {
		pkts[i] = PacketVec{Hdr: hdr, Payload: payload}
	}
	// drain empties the listener's socket buffer (some datagrams of a
	// burst may have been dropped on a full buffer), so subtests start
	// clean.
	drain := func(t *testing.T) {
		t.Helper()
		if err := lis.c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := lis.Recv(); err != nil {
				break
			}
		}
		if err := lis.c.SetReadDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	pin := func(t *testing.T, what string, f func()) {
		t.Helper()
		if a := testing.AllocsPerRun(runs, f); a != 0 {
			t.Fatalf("%s allocates %.1f per call, want 0", what, a)
		}
	}

	t.Run("SendVec", func(t *testing.T) {
		pin(t, "UDPConn.SendVec", func() {
			if err := conn.SendVec(hdr, payload); err != nil {
				t.Fatal(err)
			}
		})
		drain(t)
	})
	t.Run("SendBatch", func(t *testing.T) {
		pin(t, "UDPConn.SendBatch", func() {
			if err := conn.SendBatch(pkts); err != nil {
				t.Fatal(err)
			}
		})
		drain(t)
	})
	t.Run("ListenerRecv", func(t *testing.T) {
		for i := 0; i < runs+1; i++ {
			if err := conn.SendVec(hdr, payload); err != nil {
				t.Fatal(err)
			}
		}
		pin(t, "UDPListener.Recv", func() {
			if p, err := lis.Recv(); err != nil || len(p) != HeaderSize+len(payload) {
				t.Fatalf("recv %d bytes, err %v", len(p), err)
			}
		})
	})
	t.Run("TryRecv", func(t *testing.T) {
		// The listener learned the conn as its peer above; the replies
		// are what the conn's feedback poll finds.
		pin(t, "UDPConn.TryRecv on an empty socket", func() {
			if _, ok := conn.TryRecv(); ok {
				t.Fatal("TryRecv found a datagram on an empty socket")
			}
		})
		pin(t, "UDPListener.Send", func() {
			if err := lis.Send(hdr); err != nil {
				t.Fatal(err)
			}
		})
		// Loopback delivery is synchronous, but give the kernel a moment
		// before polling without blocking.
		deadline := time.Now().Add(2 * time.Second)
		got := 0
		pin(t, "UDPConn.TryRecv with data queued", func() {
			for {
				if p, ok := conn.TryRecv(); ok {
					if len(p) != HeaderSize {
						t.Fatalf("TryRecv returned %d bytes", len(p))
					}
					got++
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("reply %d never arrived", got)
				}
			}
		})
	})
}
