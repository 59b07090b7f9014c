// Wire codecs. Every frame on the wire is a 4-byte big-endian length
// prefix plus a body; what the body holds depends on the connection:
//
//   - Until a hello, the body is one JSON document. The cold ops —
//     fetch (the paper's trace exchange), metrics and drain — work on
//     such a connection.
//   - After a first-frame {"op":"hello","codec":"locb1"} (itself JSON)
//     and the server's JSON ack, the connection speaks CodecBinary
//     ("locb1"): the body is one tag byte followed by a fixed
//     little-endian payload — raw float64 bits, uvarint lengths, and
//     per-frame interning of repeated beacon IDs. The hot frames (push
//     requests and results, stream batches) exist only in this form;
//     push and subscribe on a connection that never said hello are
//     refused with an error frame naming locb1.
//
// Both forms share the pooled frame buffers below: a frame is built (or
// read) into a reusable buffer with the length header prepended, so the
// hot paths do one conn.Write per frame and zero per-frame allocations.
package netproto

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// CodecBinary names the binary codec in hello frames. The "1" is the
// wire version: an incompatible layout change ships as locb2, and a
// server that only knows locb1 refuses its hello instead of misparsing
// frames.
const CodecBinary = "locb1"

// errBinMalformed reports a binary frame whose payload does not decode:
// truncated, over-long, an out-of-range intern reference, or trailing
// garbage. The connection that produced it cannot be trusted to be
// frame-aligned and is closed.
var errBinMalformed = errors.New("netproto: malformed binary frame")

// Binary frame tags (the first body byte of a CodecBinary frame).
const (
	// bfJSON wraps an arbitrary JSON document — the escape hatch that
	// lets cold ops (drain, subscribe, metrics, fetch) ride a locb1
	// connection without a bespoke encoding.
	bfJSON = 0x00
	// bfPushReq is a push request: an observation batch with interned
	// beacon IDs.
	bfPushReq = 0x01
	// bfPushResult is one beacon's streamed result frame.
	bfPushResult = 0x02
	// bfPushDone terminates a push exchange (carries the result count).
	bfPushDone = 0x03
	// bfError is a typed exchange-level error frame.
	bfError = 0x04
	// bfStreamBatch is one live (RSS, motion) stream batch.
	bfStreamBatch = 0x05
)

// PushResult lifecycle flag bits in a bfPushResult frame.
const (
	bfFlagCreated     = 1 << 0
	bfFlagRestored    = 1 << 1
	bfFlagQuarantined = 1 << 2
)

// StreamBatch flag bits in a bfStreamBatch frame.
const (
	bfFlagFinal    = 1 << 0
	bfFlagDraining = 1 << 1
)

// frameBuf is a pooled frame workspace. For writes, the frame is built
// into b with 4 bytes reserved up front for the length header, so the
// whole frame leaves in one conn.Write; enc is a json.Encoder bound to
// the buffer itself (via Write below) so the JSON path reuses one
// encoder per pooled buffer instead of allocating per frame.
type frameBuf struct {
	b   []byte
	enc *json.Encoder
}

// Write appends to the buffer — it exists so enc can target fb.
func (fb *frameBuf) Write(p []byte) (int, error) {
	fb.b = append(fb.b, p...)
	return len(p), nil
}

func newFrameBuf() *frameBuf {
	fb := &frameBuf{b: make([]byte, 0, 4096)}
	fb.enc = json.NewEncoder(fb)
	return fb
}

var framePool = sync.Pool{New: func() any { return newFrameBuf() }}

// maxPooledFrame caps the buffer size retained by the pool: a rare
// jumbo frame must not pin megabytes in every pool slot forever.
const maxPooledFrame = 1 << 20

func getFrameBuf() *frameBuf { return framePool.Get().(*frameBuf) }

func putFrameBuf(fb *frameBuf) {
	if cap(fb.b) > maxPooledFrame {
		return // let the jumbo buffer go; the pool refills at 4 KiB
	}
	framePool.Put(fb)
}

// beginFrame resets the buffer to the 4 reserved header bytes.
func (fb *frameBuf) beginFrame() {
	fb.b = append(fb.b[:0], 0, 0, 0, 0)
}

// encodeJSONBody appends v's JSON encoding to the buffer (the pooled
// encoder terminates each document with '\n', which is not part of the
// frame and is stripped).
func (fb *frameBuf) encodeJSONBody(v any) error {
	if err := fb.enc.Encode(v); err != nil {
		return fmt.Errorf("netproto: marshal: %w", err)
	}
	if n := len(fb.b); n > 0 && fb.b[n-1] == '\n' {
		fb.b = fb.b[:n-1]
	}
	return nil
}

// flushFrame patches the length header reserved by beginFrame and
// writes the whole frame — header and body — with a single Write call.
func flushFrame(w io.Writer, buf []byte) error {
	body := len(buf) - 4
	if body > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	metFramesOut.Inc()
	metBytesOut.Add(int64(body))
	return nil
}

// readFrameBody reads one length-prefixed frame body into the pooled
// buffer and returns it. The returned slice aliases fb.b and is valid
// until the next use of fb; callers must copy anything they keep.
// Frame accounting (metFramesIn/metBytesIn) is the caller's, after it
// has decoded the body successfully.
func readFrameBody(r io.Reader, fb *frameBuf) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if cap(fb.b) < int(n) {
		fb.b = make([]byte, n)
	} else {
		fb.b = fb.b[:n]
	}
	if _, err := io.ReadFull(r, fb.b); err != nil {
		return nil, err
	}
	return fb.b, nil
}

// accountFrameIn records one successfully decoded inbound frame.
func accountFrameIn(n int) {
	metFramesIn.Inc()
	metBytesIn.Add(int64(n))
}

// --- binary encoding (append-style, zero-allocation on reused buffers) ---

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendPushReq encodes a bfPushReq body. Repeated beacon IDs within
// the batch are interned: the first occurrence writes id==len(table)
// followed by the name, later occurrences write just the id. *names is
// the caller's reusable intern table (reset here); a linear scan is
// exact and allocation-free at realistic per-batch cardinalities.
func appendPushReq(dst []byte, obs []PushObs, names *[]string) []byte {
	dst = append(dst, bfPushReq)
	dst = binary.AppendUvarint(dst, uint64(len(obs)))
	table := (*names)[:0]
	for i := range obs {
		o := &obs[i]
		id := -1
		for j := range table {
			if table[j] == o.Beacon {
				id = j
				break
			}
		}
		if id < 0 {
			dst = binary.AppendUvarint(dst, uint64(len(table)))
			dst = appendStr(dst, o.Beacon)
			table = append(table, o.Beacon)
		} else {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
		dst = appendF64(dst, o.T)
		dst = appendF64(dst, o.RSS)
		dst = appendF64(dst, o.P)
		dst = appendF64(dst, o.Q)
	}
	*names = table
	return dst
}

// appendPushResult encodes a bfPushResult body.
func appendPushResult(dst []byte, r *PushResult) []byte {
	dst = append(dst, bfPushResult)
	dst = appendStr(dst, r.Beacon)
	var flags byte
	if r.Created {
		flags |= bfFlagCreated
	}
	if r.Restored {
		flags |= bfFlagRestored
	}
	if r.Quarantined {
		flags |= bfFlagQuarantined
	}
	dst = append(dst, flags)
	dst = appendStr(dst, r.Err)
	dst = binary.AppendUvarint(dst, uint64(len(r.Fixes)))
	for i := range r.Fixes {
		f := &r.Fixes[i]
		dst = appendF64(dst, f.T)
		dst = appendF64(dst, f.X)
		dst = appendF64(dst, f.Y)
		dst = appendF64(dst, f.N)
		dst = appendF64(dst, f.Gamma)
		dst = appendF64(dst, f.Confidence)
		dst = appendStr(dst, f.Mode)
		dst = binary.AppendUvarint(dst, uint64(f.Samples))
	}
	return dst
}

// appendPushDone encodes a bfPushDone body.
func appendPushDone(dst []byte, beacons int) []byte {
	dst = append(dst, bfPushDone)
	return binary.AppendUvarint(dst, uint64(beacons))
}

// appendError encodes a bfError body.
func appendError(dst []byte, msg string) []byte {
	dst = append(dst, bfError)
	return appendStr(dst, msg)
}

// appendStreamBatch encodes a bfStreamBatch body.
func appendStreamBatch(dst []byte, b *StreamBatch) []byte {
	dst = append(dst, bfStreamBatch)
	dst = binary.AppendUvarint(dst, uint64(b.Seq))
	var flags byte
	if b.Final {
		flags |= bfFlagFinal
	}
	if b.Draining {
		flags |= bfFlagDraining
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(b.RSS)))
	for i := range b.RSS {
		r := &b.RSS[i]
		dst = appendF64(dst, r.T)
		dst = appendF64(dst, r.RSS)
		dst = binary.AppendVarint(dst, int64(r.Chan))
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Motion)))
	for i := range b.Motion {
		m := &b.Motion[i]
		dst = appendF64(dst, m.T)
		dst = appendF64(dst, m.X)
		dst = appendF64(dst, m.Y)
	}
	return dst
}

// --- binary decoding (bounds-checked, sticky-error reader) ---

// binReader walks a binary frame body with a sticky error: after the
// first malformed read every accessor returns zero values, so decoders
// can run straight-line and check err once. It never reads past b.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errBinMalformed
	}
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads a uvarint element count and validates it against the
// bytes actually remaining (minSize per element) — the alloc-bomb
// guard: a forged count can never make the decoder allocate more than
// the frame it arrived in could justify.
func (r *binReader) count(minSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()/minSize) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) flags() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// str reads a uvarint-length-prefixed string. The returned string is a
// copy, safe to retain after the frame buffer is reused.
func (r *binReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// intu reads a uvarint that must fit a non-negative int.
func (r *binReader) intu() int {
	v := r.uvarint()
	if v > math.MaxInt64 {
		r.fail()
		return 0
	}
	return int(v)
}

// done enforces that the frame body was consumed exactly: trailing
// bytes mean a codec disagreement, not padding.
func (r *binReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail()
	}
	return r.err
}

// decodePushReq decodes a bfPushReq body (after the tag byte) into the
// reusable dst/names scratch. Returned observations own their strings
// (one allocation per distinct beacon per frame); dst and names grow
// once and are reused across frames.
func decodePushReq(body []byte, dst []PushObs, names []string) ([]PushObs, []string, error) {
	r := binReader{b: body}
	// An interned-reference observation is at least 1 (id) + 32 (floats)
	// bytes, so the count can never exceed remaining/33.
	n := r.count(33)
	dst, names = dst[:0], names[:0]
	for i := 0; i < n && r.err == nil; i++ {
		id := r.uvarint()
		var name string
		switch {
		case id < uint64(len(names)):
			name = names[id]
		case id == uint64(len(names)):
			name = r.str()
			names = append(names, name)
		default:
			r.fail()
		}
		o := PushObs{Beacon: name}
		o.T = r.f64()
		o.RSS = r.f64()
		o.P = r.f64()
		o.Q = r.f64()
		if r.err == nil {
			dst = append(dst, o)
		}
	}
	return dst, names, r.done()
}

// decodePushResult decodes a bfPushResult body (after the tag byte).
func decodePushResult(body []byte, out *PushResult) error {
	r := binReader{b: body}
	out.Beacon = r.str()
	flags := r.flags()
	out.Created = flags&bfFlagCreated != 0
	out.Restored = flags&bfFlagRestored != 0
	out.Quarantined = flags&bfFlagQuarantined != 0
	out.Err = r.str()
	// A fix is at least 48 (floats) + 1 (mode len) + 1 (samples) bytes.
	n := r.count(50)
	out.Fixes = nil
	if n > 0 && r.err == nil {
		out.Fixes = make([]PushFix, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var f PushFix
			f.T = r.f64()
			f.X = r.f64()
			f.Y = r.f64()
			f.N = r.f64()
			f.Gamma = r.f64()
			f.Confidence = r.f64()
			f.Mode = r.str()
			f.Samples = r.intu()
			if r.err == nil {
				out.Fixes = append(out.Fixes, f)
			}
		}
	}
	return r.done()
}

// decodeStreamBatch decodes a bfStreamBatch body (after the tag byte).
func decodeStreamBatch(body []byte, out *StreamBatch) error {
	r := binReader{b: body}
	out.Seq = r.intu()
	flags := r.flags()
	out.Final = flags&bfFlagFinal != 0
	out.Draining = flags&bfFlagDraining != 0
	out.RSS, out.Motion = nil, nil
	// An RSS entry is at least 8+8+1 bytes.
	n := r.count(17)
	if n > 0 && r.err == nil {
		out.RSS = make([]TimedRSS, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var e TimedRSS
			e.T = r.f64()
			e.RSS = r.f64()
			e.Chan = int(r.varint())
			if r.err == nil {
				out.RSS = append(out.RSS, e)
			}
		}
	}
	// A motion point is 24 bytes.
	n = r.count(24)
	if n > 0 && r.err == nil {
		out.Motion = make([]MotionPoint, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var m MotionPoint
			m.T = r.f64()
			m.X = r.f64()
			m.Y = r.f64()
			if r.err == nil {
				out.Motion = append(out.Motion, m)
			}
		}
	}
	return r.done()
}

// --- per-connection I/O ---

// helloAck is the server's answer to an accepted hello frame (JSON —
// the connection switches to locb1 after the ack).
type helloAck struct {
	Codec string `json:"codec"`
}

// hello opens locb1 on a fresh client connection: it sends the JSON
// hello frame and reads the server's JSON ack. A shed connection
// reports ErrOverloaded; any other answer is a refusal.
// Deadlines are left set; the caller owns the connection afterwards.
func hello(ctx context.Context, conn net.Conn, br *bufio.Reader) error {
	dl := time.Now().Add(FrameTimeout)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	conn.SetWriteDeadline(dl)
	req := struct {
		Op    string `json:"op"`
		Codec string `json:"codec"`
	}{Op: "hello", Codec: CodecBinary}
	if err := WriteFrame(conn, &req); err != nil {
		return err
	}
	conn.SetReadDeadline(dl)
	var ack struct {
		Codec string `json:"codec"`
		Err   string `json:"error"`
	}
	if err := ReadFrame(br, &ack); err != nil {
		return err
	}
	switch {
	case ack.Codec == CodecBinary:
		return nil
	case ack.Err != "":
		return exchangeError("hello", ack.Err)
	default:
		return fmt.Errorf("netproto: hello: server answered codec %q, want %s", ack.Codec, CodecBinary)
	}
}

// wireReq is one decoded inbound request frame. Binary push frames
// decode straight into the reusable Obs scratch; everything else
// (hello, fetch, drain, metrics, subscribe) arrives as JSON — plain or
// bfJSON-wrapped — and never carries observations.
type wireReq struct {
	Op    string    `json:"op"`
	Codec string    `json:"codec"`
	From  int       `json:"from"`
	Obs   []PushObs `json:"-"`
}

// connReader reads request frames for one server connection, holding
// the connection's reusable decode scratch.
type connReader struct {
	br    *bufio.Reader
	fb    *frameBuf
	obs   []PushObs
	names []string
}

func (r *connReader) read(binary bool, req *wireReq) error {
	// Unmarshal merges into existing fields; a stale request must not
	// leak into a frame that omits them.
	req.Op, req.Codec, req.From, req.Obs = "", "", 0, nil
	if !binary {
		return ReadFrame(r.br, req)
	}
	body, err := readFrameBody(r.br, r.fb)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return errBinMalformed
	}
	switch body[0] {
	case bfPushReq:
		obs, names, err := decodePushReq(body[1:], r.obs, r.names)
		r.obs, r.names = obs, names
		if err != nil {
			return err
		}
		req.Op, req.Obs = "push", obs
	case bfJSON:
		if err := json.Unmarshal(body[1:], req); err != nil {
			return err
		}
	default:
		return errBinMalformed
	}
	accountFrameIn(len(body))
	return nil
}

// negotiateHello answers one server-side hello frame and, when it offers
// locb1, flips the writer for all subsequent frames. The ack itself is
// JSON — the requesting side is still reading JSON until it sees the
// answer. Returns false when the connection should close. Callers have
// already set the write deadline.
func negotiateHello(w *wireWriter, codec string) bool {
	if codec != CodecBinary {
		metCodecRejected.Inc()
		WriteFrame(w.w, map[string]string{"error": "unsupported codec " + codec})
		return false
	}
	if err := WriteFrame(w.w, helloAck{Codec: CodecBinary}); err != nil {
		return false
	}
	w.binary = true
	metCodecBinary.Inc()
	return true
}

// writeBinJSON writes v as one bfJSON-wrapped locb1 frame built in fb.
func writeBinJSON(w io.Writer, fb *frameBuf, v any) error {
	fb.beginFrame()
	fb.b = append(fb.b, bfJSON)
	if err := fb.encodeJSONBody(v); err != nil {
		return err
	}
	return flushFrame(w, fb.b)
}

// decodeError decodes a bfError frame body (tag byte included) into the
// exchange error it carries, accounting the frame once it decodes.
func decodeError(op string, body []byte) error {
	r := binReader{b: body[1:]}
	msg := r.str()
	if err := r.done(); err != nil {
		return err
	}
	accountFrameIn(len(body))
	return exchangeError(op, msg)
}

// wireWriter writes response frames for one server connection: JSON
// until a hello switches it to locb1, where the hot frame types use
// their bespoke encodings and everything else rides a bfJSON wrapper.
// The hot writers are only reached on a locb1 connection.
type wireWriter struct {
	w      io.Writer
	binary bool
	fb     *frameBuf
}

// writeJSONy writes v as a JSON frame (plain or bfJSON-wrapped).
func (w *wireWriter) writeJSONy(v any) error {
	if !w.binary {
		return WriteFrame(w.w, v)
	}
	return writeBinJSON(w.w, w.fb, v)
}

// writeError writes a typed exchange-level error frame.
func (w *wireWriter) writeError(msg string) error {
	if !w.binary {
		return WriteFrame(w.w, map[string]string{"error": msg})
	}
	w.fb.beginFrame()
	w.fb.b = appendError(w.fb.b, msg)
	return flushFrame(w.w, w.fb.b)
}

func (w *wireWriter) writePushResult(r *PushResult) error {
	w.fb.beginFrame()
	w.fb.b = appendPushResult(w.fb.b, r)
	return flushFrame(w.w, w.fb.b)
}

func (w *wireWriter) writePushDone(beacons int) error {
	w.fb.beginFrame()
	w.fb.b = appendPushDone(w.fb.b, beacons)
	return flushFrame(w.w, w.fb.b)
}

func (w *wireWriter) writeStreamBatch(b *StreamBatch) error {
	w.fb.beginFrame()
	w.fb.b = appendStreamBatch(w.fb.b, b)
	return flushFrame(w.w, w.fb.b)
}

// --- reusable whole-frame encoder/decoder (benchmarks, fuzzing) ---

// BinaryPushEncoder encodes complete locb1 push-request frames (length
// header included) into a reusable buffer. It is what the pipeline
// benchmark measures; the wire path uses the same appendPushReq core.
// Not safe for concurrent use.
type BinaryPushEncoder struct {
	buf   []byte
	names []string
}

// Encode returns the encoded frame for obs. The slice is valid until
// the next Encode call.
func (e *BinaryPushEncoder) Encode(obs []PushObs) []byte {
	e.buf = append(e.buf[:0], 0, 0, 0, 0)
	e.buf = appendPushReq(e.buf, obs, &e.names)
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
	return e.buf
}

// BinaryPushDecoder decodes complete locb1 push-request frames into
// reusable scratch. Not safe for concurrent use.
type BinaryPushDecoder struct {
	obs   []PushObs
	names []string
}

// Decode parses one frame as produced by BinaryPushEncoder.Encode. The
// returned observations are valid until the next Decode call.
func (d *BinaryPushDecoder) Decode(frame []byte) ([]PushObs, error) {
	if len(frame) < 5 {
		return nil, errBinMalformed
	}
	n := binary.BigEndian.Uint32(frame[:4])
	if n > MaxFrameSize || int(n) != len(frame)-4 {
		return nil, errBinMalformed
	}
	if frame[4] != bfPushReq {
		return nil, errBinMalformed
	}
	obs, names, err := decodePushReq(frame[5:], d.obs, d.names)
	d.obs, d.names = obs, names
	if err != nil {
		return nil, err
	}
	return obs, nil
}
