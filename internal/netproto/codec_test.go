package netproto

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"locble/internal/core"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/testutil"
)

// localReplayFixes feeds a stream into one standalone local session and
// returns the fixes — the ground truth every wire codec must reproduce
// bit-for-bit.
func localReplayFixes(t *testing.T, stream []fleet.Obs) []PushFix {
	t.Helper()
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	s, err := eng.NewTrackSession(core.TrackSessionConfig{Beacon: stream[0].Beacon, SampleRateHz: 8})
	if err != nil {
		t.Fatalf("NewTrackSession: %v", err)
	}
	var want []PushFix
	for _, o := range stream {
		pt, err := s.Push(estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
		if err != nil {
			t.Fatalf("local Push: %v", err)
		}
		if pt != nil {
			want = append(want, PushFix{
				T: pt.T, X: pt.Est.X, Y: pt.Est.H,
				N: pt.Est.N, Gamma: pt.Est.Gamma,
				Confidence: pt.Est.Confidence,
				Mode:       pt.Mode.String(),
				Samples:    pt.Samples,
			})
		}
	}
	return want
}

// requireBitIdentical compares fix streams field by field at the bit
// level — float equality (==) would let -0 alias 0 and hide a codec
// that normalizes bits.
func requireBitIdentical(t *testing.T, label string, got, want []PushFix) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d fixes, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		same := math.Float64bits(g.T) == math.Float64bits(w.T) &&
			math.Float64bits(g.X) == math.Float64bits(w.X) &&
			math.Float64bits(g.Y) == math.Float64bits(w.Y) &&
			math.Float64bits(g.N) == math.Float64bits(w.N) &&
			math.Float64bits(g.Gamma) == math.Float64bits(w.Gamma) &&
			math.Float64bits(g.Confidence) == math.Float64bits(w.Confidence) &&
			g.Mode == w.Mode && g.Samples == w.Samples
		if !same {
			t.Fatalf("%s: fix %d differs at the bit level:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

// pushStream pushes a stream through cl in slices and returns the
// concatenated fixes.
func pushStream(t *testing.T, ctx context.Context, cl *FleetClient, stream []fleet.Obs, slice int) []PushFix {
	t.Helper()
	var fixes []PushFix
	for lo := 0; lo < len(stream); lo += slice {
		res, err := cl.Push(ctx, stream[lo:lo+slice])
		if err != nil {
			t.Fatalf("Push @%d: %v", lo, err)
		}
		for _, r := range res {
			if r.Err != "" {
				t.Fatalf("%s @%d: %s", r.Beacon, lo, r.Err)
			}
			fixes = append(fixes, r.Fixes...)
		}
	}
	return fixes
}

// TestCodecNegotiationMatrix covers each hot op against whether the
// connection opened with the locb1 hello: with it, a push lands; without
// it, push and subscribe are refused with an error frame naming locb1
// and the connection is closed.
func TestCodecNegotiationMatrix(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("default-client/default-server-lands-binary", func(t *testing.T) {
		srv, _ := newPushServer(t, ServerConfig{})
		before := metCodecBinary.Value()
		cl, err := DialFleet(ctx, srv.Addr())
		if err != nil {
			t.Fatalf("DialFleet: %v", err)
		}
		defer cl.Close()
		if _, err := cl.Push(ctx, fleet.SynthStream("m-bin", 8, 0)); err != nil {
			t.Fatalf("binary Push: %v", err)
		}
		if got := metCodecBinary.Value() - before; got != 1 {
			t.Fatalf("codec.binary delta = %d, want 1 accepted hello", got)
		}
	})

	for op, req := range map[string]any{
		"push":      map[string]any{"op": "push", "obs": fleet.SynthStream("m-json", 8, 0)},
		"subscribe": subscribeReq{Op: "subscribe"},
	} {
		t.Run("json-"+op+"-refused", func(t *testing.T) {
			srv, _ := newPushServer(t, ServerConfig{})
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := WriteFrame(conn, req); err != nil {
				t.Fatalf("write %s: %v", op, err)
			}
			var resp struct {
				Err string `json:"error"`
			}
			br := newReader(conn)
			if err := ReadFrame(br, &resp); err != nil {
				t.Fatalf("read answer: %v", err)
			}
			if !strings.Contains(resp.Err, CodecBinary) {
				t.Fatalf("answer %+v, want an error naming %s", resp, CodecBinary)
			}
			var after json.RawMessage
			if err := ReadFrame(br, &after); err == nil {
				t.Fatalf("connection still open after a JSON %s: read %s", op, after)
			}
		})
	}
}

// TestHelloUnknownCodecRejected: a hello offering a codec the server
// doesn't know — locb1, the push layout before the one-frame reply, or
// one that never existed — is refused with a typed error frame naming
// the codec the server speaks, counted as a rejection, and the
// connection closed: never silently misparsed.
func TestHelloUnknownCodecRejected(t *testing.T) {
	for _, codec := range []string{"locb1", "locb99"} {
		t.Run(codec, func(t *testing.T) {
			srv, _ := newPushServer(t, ServerConfig{})
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			before := metCodecRejected.Value()
			if err := WriteFrame(conn, map[string]string{"op": "hello", "codec": codec}); err != nil {
				t.Fatalf("write hello: %v", err)
			}
			var resp struct {
				Err string `json:"error"`
			}
			br := newReader(conn)
			if err := ReadFrame(br, &resp); err != nil {
				t.Fatalf("read answer: %v", err)
			}
			if !strings.Contains(resp.Err, "unsupported codec "+codec) || !strings.Contains(resp.Err, CodecBinary) {
				t.Fatalf("answer %+v, want an unsupported-codec error naming %s", resp, CodecBinary)
			}
			if got := metCodecRejected.Value() - before; got != 1 {
				t.Errorf("codec.rejected delta = %d, want 1", got)
			}
			var after json.RawMessage
			if err := ReadFrame(br, &after); err == nil {
				t.Fatalf("connection still open after rejected hello: read %s", after)
			}
		})
	}
}

// TestHelloMidStreamRejected: a hello anywhere but the first frame is a
// protocol violation — typed error frame, connection shed.
func TestHelloMidStreamRejected(t *testing.T) {
	srv, _ := newPushServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := newReader(conn)

	// A legitimate first exchange to move past the first frame.
	if err := WriteFrame(conn, map[string]string{"op": "metrics"}); err != nil {
		t.Fatalf("write metrics: %v", err)
	}
	var snap json.RawMessage
	if err := ReadFrame(br, &snap); err != nil {
		t.Fatalf("read metrics: %v", err)
	}

	if err := WriteFrame(conn, map[string]string{"op": "hello", "codec": CodecBinary}); err != nil {
		t.Fatalf("write late hello: %v", err)
	}
	var resp struct {
		Err string `json:"error"`
	}
	if err := ReadFrame(br, &resp); err != nil {
		t.Fatalf("read answer: %v", err)
	}
	if !strings.Contains(resp.Err, "hello") {
		t.Fatalf("answer %+v, want a mid-stream hello error", resp)
	}
	var after json.RawMessage
	if err := ReadFrame(br, &after); err == nil {
		t.Fatalf("connection still open after mid-stream hello: read %s", after)
	}
}

func newReader(conn net.Conn) *bufio.Reader { return bufio.NewReader(conn) }

// countingWriter counts Write calls — the single-write framing proof.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFramesAreSingleWrite: both codecs emit header+body with exactly
// one Write call per frame — no header/body syscall split, and no
// small-write interleaving hazard between pipelined writers.
func TestFramesAreSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, map[string]string{"op": "drain"}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if w.writes != 1 {
		t.Fatalf("JSON WriteFrame made %d Write calls, want 1", w.writes)
	}

	w = countingWriter{}
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	fb.beginFrame()
	fb.b = appendPushReq(fb.b, []fleet.Obs{{Beacon: "b", T: 1, RSS: -60}}, &[]string{})
	if err := flushFrame(&w, fb.b); err != nil {
		t.Fatalf("flushFrame: %v", err)
	}
	if w.writes != 1 {
		t.Fatalf("binary frame made %d Write calls, want 1", w.writes)
	}
}

// TestJSONModeBytesUnchanged: a plain JSON frame — the fetch reply of
// the trace exchange here — is byte-identical to the seed encoding; the
// pooled encoder path changed the allocation profile, not the wire.
func TestJSONModeBytesUnchanged(t *testing.T) {
	req := testBundle()

	var pooled countingWriter
	if err := WriteFrame(&pooled, req); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}

	// The seed implementation: marshal, then prepend the length header.
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	want := append([]byte{byte(len(body) >> 24), byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}, body...)
	if !bytes.Equal(pooled.Bytes(), want) {
		t.Fatalf("pooled JSON frame differs from seed encoding:\n got  %q\n want %q", pooled.Bytes(), want)
	}
}

// TestBinaryPushBitIdentical is the codec's load-bearing contract: the
// same observation stream pushed through a locb1 client and replayed
// locally produces bit-identical fixes. Run under -race it also
// exercises the pipelined reader.
func TestBinaryPushBitIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const n, slice = 240, 24
	stream := fleet.SynthStream("bit-1", n, 0.45)
	want := localReplayFixes(t, stream)
	if len(want) == 0 {
		t.Fatal("local replay produced no fixes; the comparison is vacuous")
	}

	srv, _ := newPushServer(t, ServerConfig{})
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()
	requireBitIdentical(t, CodecBinary, pushStream(t, ctx, cl, stream, slice), want)
}

// TestBinaryPushConcurrentBitIdentical: many goroutines pipelining
// distinct beacons over one binary connection still get bit-identical
// per-beacon fix streams — the FIFO matcher and the intern table hold
// up under interleaving (and -race watches the locks).
func TestBinaryPushConcurrentBitIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv, _ := newPushServer(t, ServerConfig{})
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()

	const pushers, n, slice = 6, 120, 24
	streams := make([][]fleet.Obs, pushers)
	for i := range streams {
		streams[i] = fleet.SynthStream(fmt.Sprintf("cc-%02d", i), n, 0.7*float64(i))
	}
	got := make([][]PushFix, pushers)
	var wg sync.WaitGroup
	errs := make(chan error, pushers)
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for lo := 0; lo < n; lo += slice {
				res, err := cl.Push(ctx, streams[i][lo:lo+slice])
				if err != nil {
					errs <- fmt.Errorf("pusher %d @%d: %w", i, lo, err)
					return
				}
				for _, r := range res {
					if r.Err != "" {
						errs <- fmt.Errorf("pusher %d: %s: %s", i, r.Beacon, r.Err)
						return
					}
					got[i] = append(got[i], r.Fixes...)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range streams {
		requireBitIdentical(t, fmt.Sprintf("pusher %d", i), got[i], localReplayFixes(t, streams[i]))
	}
}

// fakeFleetServer is a hand-driven server for pipelining tests: it
// negotiates binary, then reads request frames without answering until
// told to, so the client's window fills deterministically.
type fakeFleetServer struct {
	t  *testing.T
	ln net.Listener

	mu     sync.Mutex
	conn   net.Conn
	reqs   int
	gotReq chan struct{} // one tick per request frame read
}

func newFakeFleetServer(t *testing.T) *fakeFleetServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &fakeFleetServer{t: t, ln: ln, gotReq: make(chan struct{}, 64)}
	t.Cleanup(func() { s.Close() })
	go s.serveOne()
	return s
}

func (s *fakeFleetServer) serveOne() {
	conn, err := s.ln.Accept()
	if err != nil {
		return
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	br := bufio.NewReader(conn)
	var hello wireReq
	if err := ReadFrame(br, &hello); err != nil || hello.Op != "hello" {
		conn.Close()
		return
	}
	if err := WriteFrame(conn, helloAck{Codec: CodecBinary}); err != nil {
		return
	}
	fb := newFrameBuf()
	for {
		if _, err := readFrameBody(br, fb); err != nil {
			return
		}
		s.mu.Lock()
		s.reqs++
		s.mu.Unlock()
		s.gotReq <- struct{}{}
	}
}

// respondError writes one bfError frame on the accepted connection.
func (s *fakeFleetServer) respondError(msg string) {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	fb := newFrameBuf()
	fb.beginFrame()
	fb.b = appendError(fb.b, msg)
	if err := flushFrame(conn, fb.b); err != nil {
		s.t.Errorf("fake server write: %v", err)
	}
}

func (s *fakeFleetServer) Close() {
	s.ln.Close()
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.mu.Unlock()
}

// TestPipelineWindowBounds: DefaultPushWindow pushes fill the window,
// and the next PushAsync blocks until a slot frees; it respects its
// context while blocked.
func TestPipelineWindowBounds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := newFakeFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	batch := fleet.SynthStream("win", 4, 0)
	for i := 0; i < DefaultPushWindow; i++ {
		if _, err := cl.PushAsync(ctx, batch); err != nil {
			t.Fatalf("PushAsync %d: %v", i, err)
		}
		<-srv.gotReq
	}
	// Window full: the next push must park on the window, not the wire.
	short, scancel := context.WithTimeout(ctx, 150*time.Millisecond)
	defer scancel()
	if _, err := cl.PushAsync(short, batch); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PushAsync with a full window: err = %v, want context.DeadlineExceeded", err)
	}
	srv.mu.Lock()
	reqs := srv.reqs
	srv.mu.Unlock()
	if reqs != DefaultPushWindow {
		t.Fatalf("server saw %d request frames, want %d (window must bound the wire)", reqs, DefaultPushWindow)
	}
}

// TestPipelinePoisonFailsAllPending: an exchange-level error frame is
// terminal — the failed exchange and everything queued behind it report
// the error, and later calls fail fast.
func TestPipelinePoisonFailsAllPending(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := newFakeFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	batch := fleet.SynthStream("poison", 4, 0)
	var pendings []*PushPending
	for i := 0; i < 3; i++ {
		p, err := cl.PushAsync(ctx, batch)
		if err != nil {
			t.Fatalf("PushAsync %d: %v", i, err)
		}
		pendings = append(pendings, p)
		<-srv.gotReq
	}
	srv.respondError("no fleet attached")
	for i, p := range pendings {
		if _, err := p.Wait(ctx); err == nil {
			t.Fatalf("pending %d succeeded after pipeline poison", i)
		}
	}
	if _, err := cl.Push(ctx, batch); err == nil {
		t.Fatal("Push on a poisoned client succeeded")
	}
}

// TestPipelineFIFOOrdering: responses match requests in send order —
// each async push's results carry its own batch's beacon, also when
// twice the window's pushes queue behind it.
func TestPipelineFIFOOrdering(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := newPushServer(t, ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	const k = 2 * DefaultPushWindow
	var pendings []*PushPending
	for i := 0; i < k; i++ {
		p, err := cl.PushAsync(ctx, fleet.SynthStream(fmt.Sprintf("fifo-%d", i), 8, 0))
		if err != nil {
			t.Fatalf("PushAsync %d: %v", i, err)
		}
		pendings = append(pendings, p)
	}
	for i, p := range pendings {
		res, err := p.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if len(res) != 1 || res[0].Beacon != fmt.Sprintf("fifo-%d", i) {
			t.Fatalf("pending %d got results %+v, want its own beacon fifo-%d", i, res, i)
		}
	}
}

// TestPipelineDrainOrdering: a drain enqueued after pushes completes
// after them and reports the sessions those pushes created.
func TestPipelineDrainOrdering(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := newPushServer(t, ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	for i := 0; i < 3; i++ {
		if _, err := cl.PushAsync(ctx, fleet.SynthStream(fmt.Sprintf("dr-%d", i), 8, 0)); err != nil {
			t.Fatalf("PushAsync %d: %v", i, err)
		}
	}
	n, err := cl.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n != 3 {
		t.Fatalf("Drain reported %d sessions, want 3 (pushes pipelined before it)", n)
	}
}

// TestFleetClientCloseWithInflight: Close with exchanges in flight
// fails them with a terminal error and leaks nothing.
func TestFleetClientCloseWithInflight(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv := newFakeFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	p, err := cl.PushAsync(ctx, fleet.SynthStream("close", 4, 0))
	if err != nil {
		t.Fatalf("PushAsync: %v", err)
	}
	<-srv.gotReq
	cl.Close()
	if _, err := p.Wait(ctx); err == nil {
		t.Fatal("in-flight exchange succeeded across Close")
	}
}

// TestStreamCodecNegotiation: a subscriber opens locb1 with the same
// hello as a push client and receives every batch intact — payloads,
// channel numbers and the final flag.
func TestStreamCodecNegotiation(t *testing.T) {
	t.Run("binary-negotiated", func(t *testing.T) {
		srv, err := NewServer("tgt", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ch, err := Subscribe(ctx, srv.Addr())
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		waitSubscribers(t, srv, 1)
		for i := 0; i < 3; i++ {
			err := srv.Publish(
				[]TimedRSS{{T: float64(i), RSS: -70 - float64(i), Chan: 37 + i}},
				[]MotionPoint{{T: float64(i), X: 0.7 * float64(i), Y: -0.2 * float64(i)}},
				i == 2,
			)
			if err != nil {
				t.Fatalf("Publish %d: %v", i, err)
			}
		}
		var got []StreamBatch
		for b := range ch {
			got = append(got, b)
		}
		if len(got) != 3 {
			t.Fatalf("received %d batches, want 3", len(got))
		}
		for i, b := range got {
			if b.Seq != i+1 || len(b.RSS) != 1 || len(b.Motion) != 1 {
				t.Fatalf("batch %d malformed: %+v", i, b)
			}
			if b.RSS[0].RSS != -70-float64(i) || b.RSS[0].Chan != 37+i {
				t.Fatalf("batch %d RSS payload %+v", i, b.RSS[0])
			}
			if b.Motion[0].X != 0.7*float64(i) {
				t.Fatalf("batch %d motion payload %+v", i, b.Motion[0])
			}
		}
		if !got[2].Final {
			t.Fatal("last batch should be final")
		}
	})
}

// TestBinaryRoundTripUnits: encode/decode round trips for each bespoke
// frame type, including the edge payloads JSON can't carry (-0, empty
// batches, flag combinations).
func TestBinaryRoundTripUnits(t *testing.T) {
	t.Run("push-req", func(t *testing.T) {
		obs := []fleet.Obs{
			{Beacon: "a", T: 1.5, RSS: -61.25, P: 0.1, Q: -0.2},
			{Beacon: "b", T: 2.5, RSS: -62.5, P: 0.3, Q: 0.4},
			{Beacon: "a", T: 3.5, RSS: math.Copysign(0, -1), P: 0, Q: 0},
			{Beacon: "a", T: 4.5, RSS: -63, P: 0.5, Q: 0.6},
		}
		var enc BinaryPushEncoder
		var dec BinaryPushDecoder
		got, err := dec.Decode(enc.Encode(obs))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if len(got) != len(obs) {
			t.Fatalf("%d obs, want %d", len(got), len(obs))
		}
		for i := range obs {
			if got[i].Beacon != obs[i].Beacon ||
				math.Float64bits(got[i].T) != math.Float64bits(obs[i].T) ||
				math.Float64bits(got[i].RSS) != math.Float64bits(obs[i].RSS) ||
				math.Float64bits(got[i].P) != math.Float64bits(obs[i].P) ||
				math.Float64bits(got[i].Q) != math.Float64bits(obs[i].Q) {
				t.Fatalf("obs %d: got %+v want %+v", i, got[i], obs[i])
			}
		}
		if _, err := dec.Decode(enc.Encode(nil)); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
	})

	t.Run("push-reply", func(t *testing.T) {
		for name, in := range map[string][]PushResult{
			"empty": nil,
			"multi": {
				{
					Beacon: "r", Created: true, Quarantined: true,
					Fixes: []PushFix{
						{T: 1, X: 2.25, Y: -3.5, N: 2.1, Gamma: 0.9, Confidence: 0.75, Mode: "near", Samples: 17},
						{T: 2, X: math.MaxFloat64, Y: -math.MaxFloat64, N: math.Copysign(0, -1), Mode: "", Samples: 0},
					},
				},
				{Beacon: "s", Restored: true, Err: "fleet: shard session cap reached"},
				{Beacon: "", Fixes: []PushFix{{T: 3, Mode: "last-known", Samples: 1 << 20}}},
			},
		} {
			body := appendPushReply(nil, in)
			out, err := decodePushReply(body[1:])
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if len(out) != len(in) {
				t.Fatalf("%s: %d results, want %d", name, len(out), len(in))
			}
			for i := range in {
				g, w := out[i], in[i]
				if g.Beacon != w.Beacon || g.Created != w.Created || g.Restored != w.Restored ||
					g.Quarantined != w.Quarantined || g.Err != w.Err || len(g.Fixes) != len(w.Fixes) {
					t.Fatalf("%s: result %d header: got %+v want %+v", name, i, g, w)
				}
				requireBitIdentical(t, name, g.Fixes, w.Fixes)
			}
		}
	})

	t.Run("stream-batch", func(t *testing.T) {
		in := StreamBatch{
			Seq: 42, Final: true, Draining: true,
			RSS:    []TimedRSS{{T: 0.5, RSS: -71, Chan: -3}, {T: 1.5, RSS: -72, Chan: 39}},
			Motion: []MotionPoint{{T: 0.5, X: 1, Y: -1}},
		}
		body := appendStreamBatch(nil, &in)
		var out StreamBatch
		if err := decodeStreamBatch(body[1:], &out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Seq != in.Seq || out.Final != in.Final || out.Draining != in.Draining ||
			len(out.RSS) != 2 || len(out.Motion) != 1 ||
			out.RSS[0] != in.RSS[0] || out.RSS[1] != in.RSS[1] || out.Motion[0] != in.Motion[0] {
			t.Fatalf("got %+v want %+v", out, in)
		}
	})

	t.Run("alloc-bomb-count-rejected", func(t *testing.T) {
		// A forged huge element count in a tiny frame must fail cleanly
		// before any allocation sized by it.
		huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
		if _, _, err := decodePushReq(huge, nil, nil); err == nil {
			t.Fatal("forged obs count accepted")
		}
		if _, err := decodePushReply(huge); err == nil {
			t.Fatal("forged result count accepted")
		}
		// Body: result count 1, beacon len 0, flags 0, err len 0, then
		// the forged fix count.
		if _, err := decodePushReply(append([]byte{1, 0, 0, 0}, huge...)); err == nil {
			t.Fatal("forged fix count accepted")
		}
		var sb StreamBatch
		// Body: seq 1, flags 0, then the forged RSS count.
		if err := decodeStreamBatch(append([]byte{1, 0}, huge...), &sb); err == nil {
			t.Fatal("forged RSS count accepted")
		}
	})
}
