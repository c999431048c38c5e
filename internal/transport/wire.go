package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
)

// maxFrameSize bounds a single frame (header + payload combined) to
// keep a misbehaving peer from exhausting memory. The write and read
// sides enforce the same combined bound, so every frame a conforming
// writer emits is readable and everything larger is rejected on both
// ends.
const maxFrameSize = 16 << 20

// maxBatchBytes bounds the pending write batch: a writer that would
// grow the batch past this waits for the in-flight flush instead, so a
// stalled connection cannot buffer unbounded memory.
const maxBatchBytes = 1 << 20

// largePayload is the size from which a payload crosses the connection
// without a copy of its own. On send it joins the write batch by
// reference instead of being copied in; on receive it is the size of the
// read buffer, so at most this many bytes of a payload pass through the
// buffer and the rest is read straight into the pooled payload.
const largePayload = 16 << 10

// Frame types of the inter-node protocol.
const (
	frameHello      = "hello"
	frameDeliver    = "deliver"
	frameConnect    = "connect"
	frameDisconnect = "disconnect"
	frameAck        = "ack"
	frameError      = "error"
)

// frameHeader is the JSON-encoded portion of a wire frame. The payload
// travels as raw bytes after the header so bulk media is not inflated by
// JSON encoding.
type frameHeader struct {
	Type string `json:"type"`
	// From names the sending node; used to register accepted
	// connections.
	From string `json:"from"`
	// ID correlates a request with its ack/error.
	ID uint64 `json:"id,omitempty"`

	// Deliver fields.
	Dst     core.PortRef      `json:"dst,omitempty"`
	Src     core.PortRef      `json:"src,omitempty"`
	MsgType core.DataType     `json:"msgType,omitempty"`
	Headers map[string]string `json:"headers,omitempty"`
	Seq     uint64            `json:"seq,omitempty"`
	Sent    time.Time         `json:"sent,omitempty"`

	// Connect fields.
	Query *core.Query `json:"query,omitempty"`
	Class *qos.Class  `json:"class,omitempty"`

	// Ack/err fields.
	PathID PathID `json:"pathId,omitempty"`
	Err    string `json:"err,omitempty"`

	// Relay fields, set on deliver frames that cross network segments
	// through intermediary nodes. Route lists the remaining forwarding
	// targets, next hop first, destination node last; a node receiving a
	// non-empty Route forwards to Route[0] instead of delivering. TTL
	// bounds the remaining forwards and RelayID (unique per origin)
	// lets relays suppress duplicate forwards.
	Route   []string `json:"route,omitempty"`
	TTL     int      `json:"fttl,omitempty"`
	RelayID uint64   `json:"relayId,omitempty"`
}

// frame pairs a header with its raw payload.
//
// Payload ownership: a frame produced by read()/readFrameFrom owns a
// pooled payload buffer. The receiver must finish using it
// (frame.messageZeroCopy) before calling release(); after release the
// payload may be recycled into a concurrent read and must not be
// touched. The header's strings are never pooled: the routing names may
// be shared with the connection's intern table, which only ever hands
// out immutable strings.
type frame struct {
	header  frameHeader
	payload []byte
	pooled  bool // payload came from frameBufs and release() returns it
}

// connMetrics surfaces codec behavior through the obs registry. All
// handles are nil-safe, so a zero value disables metrics.
type connMetrics struct {
	// poolGets counts pooled-buffer requests; poolMisses the subset that
	// fell through to a fresh allocation. hit rate = 1 - misses/gets.
	poolGets   *obs.Counter
	poolMisses *obs.Counter
	// batchFrames observes deliver-batch sizes: frames coalesced into
	// each net.Conn write.
	batchFrames *obs.Histogram
}

// frameBufs recycles read-side payload buffers across every connection
// in the process. A sync.Pool holds pointers, so each buffer travels in
// a *[]byte box; bufBoxes recycles the emptied boxes, or every putBuf
// would heap-allocate a slice header to return a slice.
var (
	frameBufs sync.Pool
	bufBoxes  sync.Pool
)

// getBuf returns a length-n buffer, reusing a pooled one when its
// capacity suffices.
func getBuf(n int, met *connMetrics) []byte {
	if met != nil {
		met.poolGets.Inc()
	}
	if box, _ := frameBufs.Get().(*[]byte); box != nil {
		b := *box
		*box = nil
		bufBoxes.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this frame; let it be collected rather than
		// churning the pool.
	}
	if met != nil {
		met.poolMisses.Inc()
	}
	return make([]byte, n)
}

// putBuf returns a buffer to the pool.
func putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	box, _ := bufBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	frameBufs.Put(box)
}

// Bounds of a connection's intern table. Names longer than
// internMaxString are not worth keeping; a table that reaches either of
// the other two bounds is reset wholesale, so a peer sending ever-new
// names costs one plain copy per name and cannot grow it.
const (
	internMaxString  = 256
	internMaxEntries = 1024
	internMaxBytes   = 64 << 10
)

// internTable deduplicates the routing strings of deliver headers —
// node, translator, port and type names, which repeat on every message
// of a path — so the steady-state decode allocates none of them. It
// belongs to a connection's single reader and is not safe for
// concurrent use. A nil table interns nothing.
type internTable struct {
	m     map[string]string
	bytes int
}

// intern returns b as a string, shared with earlier calls when the
// table holds it.
func (t *internTable) intern(b []byte) string {
	if t == nil || len(b) == 0 || len(b) > internMaxString {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok { // no allocation: the compiler elides this conversion
		return s
	}
	if t.m == nil {
		t.m = make(map[string]string)
	} else if len(t.m) >= internMaxEntries || t.bytes+len(b) > internMaxBytes {
		clear(t.m)
		t.bytes = 0
	}
	s := string(b)
	t.m[s] = s
	t.bytes += len(s)
	return s
}

// hdrScratchMax bounds the header scratch a connection retains; a
// larger header (a control frame carrying a big query) is read into a
// one-off buffer instead.
const hdrScratchMax = 4 << 10

// readState is the decode state a connection's single reader carries
// from frame to frame: the header scratch, the intern table and the
// length-word buffer. The decoder copies every string out of the
// scratch before the next read.
type readState struct {
	hdr    []byte
	names  internTable
	lenBuf [4]byte // a local one escapes through io.Reader: an allocation per frame
}

// hdrBuf returns a length-n header buffer, the retained scratch when n
// is within hdrScratchMax.
func (st *readState) hdrBuf(n int) []byte {
	if n > hdrScratchMax {
		return make([]byte, n)
	}
	if cap(st.hdr) < n {
		st.hdr = make([]byte, n, max(n, 256))
	}
	return st.hdr[:n]
}

// release returns the frame's pooled payload buffer (no-op otherwise).
// See the ownership comment on frame.
func (f *frame) release() {
	if f.pooled && f.payload != nil {
		putBuf(f.payload)
	}
	f.payload = nil
	f.pooled = false
}

// writeBatch is one group-commit batch. Frames are encoded back to back
// into inline, except that a payload of at least largePayload bytes is
// left out and referenced in refs: it is written from the sender's own
// buffer, in its place in the stream.
type writeBatch struct {
	inline   []byte
	refs     []payloadRef
	refBytes int // sum of the referenced payloads' lengths
	frames   int
}

// payloadRef places a referenced payload in the stream: after inline[:at].
type payloadRef struct {
	at      int
	payload []byte
}

// reset empties the batch, keeping its buffers and dropping its references.
func (b *writeBatch) reset() {
	b.inline = b.inline[:0]
	clear(b.refs)
	b.refs = b.refs[:0]
	b.refBytes = 0
	b.frames = 0
}

// frameConn wraps a net.Conn with framed frame I/O. Writes use group
// commit: the first writer to arrive becomes the leader and flushes the
// shared batch; writers that arrive while a flush is in flight append to
// the next batch and wait for its flush. A solo writer therefore pays no
// added latency (its "batch" is itself, flushed immediately), while
// concurrent writers coalesce into as few conn writes as the connection
// can absorb. Every writer observes the result of the write that carried
// its frame, so delivery retries see real connection errors, not a
// deferred flush's. A referenced payload stays its writer's: write
// returns only after the flush that carried it, and the batch drops the
// reference before then.
type frameConn struct {
	conn net.Conn
	r    *bufio.Reader
	rs   readState // owned by the single reader (read has one caller per connection)
	met  *connMetrics

	wmu        sync.Mutex
	wCond      *sync.Cond
	batch      *writeBatch // accumulating; nil while the leader flushes the only one
	spare      *writeBatch // the ping-pong's other batch while batch holds one
	vec        net.Buffers // the leader's scratch: a flush's parts in wire order
	leader     bool        // a writer is flushing
	gen        uint64      // generation being accumulated
	flushedGen uint64      // newest generation fully written
	werr       error       // sticky: the connection is unusable after a failed write
}

func newFrameConn(conn net.Conn) *frameConn {
	fc := &frameConn{
		conn: conn,
		r:    bufio.NewReaderSize(conn, largePayload),
		gen:  1,
	}
	fc.wCond = sync.NewCond(&fc.wmu)
	return fc
}

// setMetrics attaches codec metrics; call before the connection is
// shared.
func (fc *frameConn) setMetrics(met *connMetrics) { fc.met = met }

// deliverHdrFlag marks a binary-encoded deliver header in the header
// length word. Deliver frames — the hot path — use a hand-rolled
// length-prefixed binary header; everything else stays JSON, where
// flexibility matters more than the reflection cost. maxFrameSize is
// far below 2^31, so the top bit of the length word is free.
const deliverHdrFlag = 0x8000_0000

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeDeliverHeader appends the binary form of a deliver header:
// From, Dst, Src, MsgType, Seq, Sent (unix nanos), Headers.
func encodeDeliverHeader(buf []byte, h *frameHeader) []byte {
	buf = appendString(buf, h.From)
	buf = appendString(buf, string(h.Dst.Translator))
	buf = appendString(buf, h.Dst.Port)
	buf = appendString(buf, string(h.Src.Translator))
	buf = appendString(buf, h.Src.Port)
	buf = appendString(buf, string(h.MsgType))
	buf = binary.AppendUvarint(buf, h.Seq)
	var sent int64
	if !h.Sent.IsZero() {
		sent = h.Sent.UnixNano()
	}
	buf = binary.AppendVarint(buf, sent)
	buf = binary.AppendUvarint(buf, uint64(len(h.Headers)))
	for k, v := range h.Headers {
		buf = appendString(buf, k)
		buf = appendString(buf, v)
	}
	// Relay section, present only on forwarded frames. Pre-relay headers
	// end exactly here, which is how the decoder tells them apart.
	if len(h.Route) > 0 || h.RelayID != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(h.Route)))
		for _, hop := range h.Route {
			buf = appendString(buf, hop)
		}
		buf = binary.AppendUvarint(buf, uint64(h.TTL))
		buf = binary.AppendUvarint(buf, h.RelayID)
	}
	return buf
}

// errBadDeliverHeader is the shared malformed-header error. A single
// package-level value: decode runs per inbound frame, and allocating a
// fresh fmt.Errorf on every (successful) call showed up in heap
// profiles of the delivery hot path.
var errBadDeliverHeader = errors.New("transport: bad deliver header")

// readHdrStr reads one uvarint-length-prefixed string from data,
// returning the string (interned in names; a plain copy when names is
// nil), the remaining bytes, and ok. A plain function (not a closure) so
// decodeDeliverHeader stays allocation-free.
func readHdrStr(data []byte, names *internTable) (string, []byte, bool) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || uint64(len(data)-sz) < n {
		return "", data, false
	}
	return names.intern(data[sz : sz+int(n)]), data[sz+int(n):], true
}

// decodeDeliverHeader parses the binary deliver header. data is a
// scratch buffer; every string is copied out of it. The six routing
// strings go through names (nil: plain copies); per-message Headers and
// Route are always plain copies.
func decodeDeliverHeader(data []byte, h *frameHeader, names *internTable) error {
	var ok bool
	if h.From, data, ok = readHdrStr(data, names); !ok {
		return errBadDeliverHeader
	}
	var s string
	if s, data, ok = readHdrStr(data, names); !ok {
		return errBadDeliverHeader
	}
	h.Dst.Translator = core.TranslatorID(s)
	if h.Dst.Port, data, ok = readHdrStr(data, names); !ok {
		return errBadDeliverHeader
	}
	if s, data, ok = readHdrStr(data, names); !ok {
		return errBadDeliverHeader
	}
	h.Src.Translator = core.TranslatorID(s)
	if h.Src.Port, data, ok = readHdrStr(data, names); !ok {
		return errBadDeliverHeader
	}
	if s, data, ok = readHdrStr(data, names); !ok {
		return errBadDeliverHeader
	}
	h.MsgType = core.DataType(s)
	seq, sz := binary.Uvarint(data)
	if sz <= 0 {
		return errBadDeliverHeader
	}
	data = data[sz:]
	h.Seq = seq
	sent, sz := binary.Varint(data)
	if sz <= 0 {
		return errBadDeliverHeader
	}
	data = data[sz:]
	if sent != 0 {
		h.Sent = time.Unix(0, sent)
	}
	count, sz := binary.Uvarint(data)
	if sz <= 0 || count > uint64(len(data)-sz) {
		return errBadDeliverHeader
	}
	data = data[sz:]
	if count > 0 {
		h.Headers = make(map[string]string, count)
		for i := uint64(0); i < count; i++ {
			var k, v string
			if k, data, ok = readHdrStr(data, nil); !ok {
				return errBadDeliverHeader
			}
			if v, data, ok = readHdrStr(data, nil); !ok {
				return errBadDeliverHeader
			}
			h.Headers[k] = v
		}
	}
	// Optional relay section: frames encoded before relaying existed (or
	// sent directly) end here, and decode with no route.
	if len(data) != 0 {
		hops, sz := binary.Uvarint(data)
		if sz <= 0 || hops > uint64(len(data)-sz) {
			return errBadDeliverHeader
		}
		data = data[sz:]
		if hops > 0 {
			h.Route = make([]string, 0, hops)
			for i := uint64(0); i < hops; i++ {
				var hop string
				if hop, data, ok = readHdrStr(data, nil); !ok {
					return errBadDeliverHeader
				}
				h.Route = append(h.Route, hop)
			}
		}
		ttl, sz := binary.Uvarint(data)
		if sz <= 0 {
			return errBadDeliverHeader
		}
		data = data[sz:]
		h.TTL = int(ttl)
		rid, sz := binary.Uvarint(data)
		if sz <= 0 {
			return errBadDeliverHeader
		}
		data = data[sz:]
		h.RelayID = rid
	}
	if len(data) != 0 {
		return errBadDeliverHeader
	}
	h.Type = frameDeliver
	return nil
}

// appendFrameEncoded appends one encoded frame — [4B header len word]
// [header][4B payload len][payload] — to buf. On error buf is returned
// unmodified.
func appendFrameEncoded(buf []byte, f *frame) ([]byte, error) {
	buf, err := appendFrameHead(buf, f)
	if err != nil {
		return buf, err
	}
	return append(buf, f.payload...), nil
}

// appendFrameHead appends everything of the encoded frame but its
// payload, after checking the combined size bound. On error buf is
// returned unmodified.
func appendFrameHead(buf []byte, f *frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // header length word, patched below
	var hdrLen int
	if f.header.Type == frameDeliver {
		buf = encodeDeliverHeader(buf, &f.header)
		hdrLen = len(buf) - start - 4
		binary.BigEndian.PutUint32(buf[start:], uint32(hdrLen)|deliverHdrFlag)
	} else {
		hdr, err := json.Marshal(f.header)
		if err != nil {
			return buf[:start], fmt.Errorf("transport: marshal frame: %w", err)
		}
		buf = append(buf, hdr...)
		hdrLen = len(hdr)
		binary.BigEndian.PutUint32(buf[start:], uint32(hdrLen))
	}
	if hdrLen+len(f.payload) > maxFrameSize {
		return buf[:start], fmt.Errorf("transport: frame exceeds %d bytes", maxFrameSize)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(f.payload)))
	return append(buf, lenBuf[:]...), nil
}

// encodeFrame renders a frame to its wire form (used by tests and the
// fuzz corpus; write() appends straight into the batch buffer instead).
func encodeFrame(f frame) ([]byte, error) {
	return appendFrameEncoded(nil, &f)
}

// write sends one frame, coalescing with concurrent writers (see the
// type comment). The returned error is the error of the conn.Write that
// carried (or would have carried) this frame.
func (fc *frameConn) write(f *frame) error {
	fc.wmu.Lock()
	// Backpressure: don't grow the pending batch without bound while a
	// flush is in flight.
	for fc.werr == nil && fc.leader && fc.batch != nil && len(fc.batch.inline)+fc.batch.refBytes >= maxBatchBytes {
		fc.wCond.Wait()
	}
	if fc.werr != nil {
		fc.wmu.Unlock()
		return fc.werr
	}
	if fc.batch == nil {
		fc.batch, fc.spare = fc.spare, nil
		if fc.batch == nil {
			fc.batch = new(writeBatch)
		}
	}
	b := fc.batch
	var encErr error
	if b.inline, encErr = appendFrameHead(b.inline, f); encErr != nil {
		fc.wCond.Broadcast()
		fc.wmu.Unlock()
		return encErr
	}
	if len(f.payload) >= largePayload {
		b.refs = append(b.refs, payloadRef{at: len(b.inline), payload: f.payload})
		b.refBytes += len(f.payload)
	} else {
		b.inline = append(b.inline, f.payload...)
	}
	b.frames++
	myGen := fc.gen

	if fc.leader {
		// Another writer is flushing; it will pick this batch up next.
		// Wait until the generation holding our frame has been written.
		for fc.werr == nil && fc.flushedGen < myGen {
			fc.wCond.Wait()
		}
		err := fc.werr
		fc.wmu.Unlock()
		return err
	}

	fc.leader = true
	for fc.werr == nil && fc.batch != nil && fc.batch.frames > 0 {
		b := fc.batch
		flushGen := fc.gen
		fc.batch = nil
		fc.gen++
		fc.wmu.Unlock()

		if fc.met != nil {
			fc.met.batchFrames.Observe(float64(b.frames))
		}
		werr := fc.flush(b)

		fc.wmu.Lock()
		b.reset()
		fc.flushedGen = flushGen
		if werr != nil {
			fc.werr = werr
			// The pending batch is never written: drop its references now.
			if fc.batch != nil {
				fc.batch.reset()
			}
		}
		// Keep both batches of the ping-pong: one accumulates while the
		// other is flushed. Only two ever exist (a third would be made
		// with both slots empty, which means at most this one is out), so
		// a slot is free.
		if fc.batch == nil {
			fc.batch = b
		} else {
			fc.spare = b
		}
		fc.wCond.Broadcast()
	}
	fc.leader = false
	err := fc.werr
	fc.wCond.Broadcast()
	fc.wmu.Unlock()
	return err
}

// flush writes one batch: its inline bytes with every referenced payload
// in its place. Only the leader calls it, without holding wmu.
func (fc *frameConn) flush(b *writeBatch) error {
	vec := fc.vec[:0]
	at := 0
	for _, r := range b.refs {
		vec = append(vec, b.inline[at:r.at], r.payload)
		at = r.at
	}
	if at < len(b.inline) {
		vec = append(vec, b.inline[at:])
	}
	// WriteTo consumes the slice it is called on; vec keeps the array.
	fc.vec = vec
	_, err := fc.vec.WriteTo(fc.conn)
	clear(vec)
	fc.vec = vec[:0]
	return err
}

// read receives one frame into f. The frame's payload is a pooled
// buffer; the caller owns it until frame.release(). One goroutine per
// connection may call read: it uses the connection's scratch and intern
// table.
func (fc *frameConn) read(f *frame) error {
	return readFrame(fc.r, fc.conn, fc.met, &fc.rs, f)
}

// readFrameFrom decodes one frame from r with no connection state:
// every header string is a plain copy (tests and fuzzing). It buffers r
// the way a connection does, so the decode path is the same.
func readFrameFrom(r io.Reader, met *connMetrics) (frame, error) {
	var f frame
	if err := readFrame(bufio.NewReaderSize(r, largePayload), r, met, nil, &f); err != nil {
		return frame{}, err
	}
	return f, nil
}

// readFrame decodes one frame from r, a buffered reader over raw, into
// f; on error f holds no buffer and its fields are unspecified. st is
// the connection's decode state, nil for a one-off decode that interns
// nothing. Header and payload lengths are validated against the same
// combined maxFrameSize bound the writer enforces — checking them only
// individually would accept frames up to twice the writable maximum.
func readFrame(r *bufio.Reader, raw io.Reader, met *connMetrics, st *readState, f *frame) error {
	*f = frame{}
	var names *internTable
	if st != nil {
		names = &st.names
	} else {
		st = new(readState)
	}
	lenBuf := st.lenBuf[:]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return err
	}
	hdrWord := binary.BigEndian.Uint32(lenBuf)
	binaryHdr := hdrWord&deliverHdrFlag != 0
	hdrLen := hdrWord &^ uint32(deliverHdrFlag)
	if hdrLen > maxFrameSize {
		return fmt.Errorf("transport: oversized header (%d bytes)", hdrLen)
	}
	hdr := st.hdrBuf(int(hdrLen))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	var err error
	if binaryHdr {
		err = decodeDeliverHeader(hdr, &f.header, names)
	} else if err = json.Unmarshal(hdr, &f.header); err != nil {
		err = fmt.Errorf("transport: bad frame header: %w", err)
	}
	if err != nil {
		return err
	}
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return err
	}
	payloadLen := binary.BigEndian.Uint32(lenBuf)
	if uint64(hdrLen)+uint64(payloadLen) > maxFrameSize {
		return fmt.Errorf("transport: oversized frame (%d byte header + %d byte payload)", hdrLen, payloadLen)
	}
	if payloadLen > 0 {
		f.payload = getBuf(int(payloadLen), met)
		f.pooled = true
		// Only the bytes r already holds are copied out of it; the rest
		// is read from raw straight into the payload.
		n := 0
		if held := r.Buffered(); held > 0 {
			n, _ = r.Read(f.payload[:min(held, len(f.payload))])
		}
		if _, err := io.ReadFull(raw, f.payload[n:]); err != nil {
			if err == io.EOF && n > 0 {
				err = io.ErrUnexpectedEOF // as one ReadFull of the payload reports it
			}
			f.release()
			return err
		}
	}
	return nil
}

func (fc *frameConn) close() error { return fc.conn.Close() }

// deliverFrame builds a deliver frame from a message.
func deliverFrame(from string, dst core.PortRef, msg core.Message) frame {
	return frame{
		header: frameHeader{
			Type:    frameDeliver,
			From:    from,
			Dst:     dst,
			Src:     msg.Source,
			MsgType: msg.Type,
			Headers: msg.Headers,
			Seq:     msg.Seq,
			Sent:    msg.Time,
		},
		payload: msg.Payload,
	}
}

// messageZeroCopy reconstructs a core.Message whose Payload aliases the
// frame's buffer. The caller must guarantee the Message (and anything
// built from its Payload) is not used after frame.release() — see
// ownership.go for the contract delivered translators must meet.
func (f *frame) messageZeroCopy() core.Message {
	return core.Message{
		Type:    f.header.MsgType,
		Payload: f.payload,
		Headers: f.header.Headers,
		Source:  f.header.Src,
		Seq:     f.header.Seq,
		Time:    f.header.Sent,
	}
}
