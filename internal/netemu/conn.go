package netemu

import (
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"
)

// DefaultSpinWindow is the read-pacing precision window: a reader whose
// head segment becomes deliverable within this long spin-waits (yielding
// the processor each iteration) instead of arming a timer. Go timers on
// a loaded host fire hundreds of microseconds late, which adds a bogus
// fixed cost to every synchronous round trip the emulator carries (an
// RMI call pays it twice); spinning the short tail keeps emulated RTTs
// within a few microseconds of the shaped value. Waits longer than the
// window still sleep on a timer, so idle connections burn no CPU.
const DefaultSpinWindow = 2 * time.Millisecond

// spinUntil busy-waits (with scheduler yields) until t.
func spinUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// segment is a paced chunk of stream data queued for delivery. buf is
// the original allocation backing data (data shrinks as readers consume
// it); once drained, buf goes back on the stream's freelist.
type segment struct {
	data      []byte
	buf       []byte
	deliverAt time.Time // zero: deliverable immediately (unshaped link)
}

// maxFree returns the segment-buffer freelist bound: enough for every
// segment the BufferBytes window admits in flight at once (a writer can
// burst the whole window before the reader drains any of it), plus
// slack. Retained memory is on the order of the in-flight buffer
// itself — the price for not allocating (and GC-scanning) a fresh
// buffer for every segment on the hot path.
func (s *stream) maxFree() int {
	return s.profile.BufferBytes/s.profile.MTU + 8
}

// stream is one direction of a shaped duplex connection. Writers pace
// their data through a token-bucket-equivalent "busy until" model and
// block when the in-flight buffer is full; readers block until the head
// segment's delivery time has passed.
type stream struct {
	profile LinkProfile
	net     *Network
	from    string
	to      string

	mu       sync.Mutex
	rCond    *sync.Cond
	wCond    *sync.Cond
	queue    []segment // queue[head:] awaits delivery; consumed slots are zeroed
	head     int
	free     [][]byte // drained segment buffers awaiting reuse
	queued   int
	nextFree time.Time
	closed   bool // write side closed: readers drain then see EOF

	readDeadline  time.Time
	writeDeadline time.Time
	rTimer        *time.Timer
	wTimer        *time.Timer
}

func newStream(n *Network, from, to string, p LinkProfile) *stream {
	s := &stream{profile: p.normalized(), net: n, from: from, to: to}
	s.rCond = sync.NewCond(&s.mu)
	s.wCond = sync.NewCond(&s.mu)
	return s
}

// Write paces b onto the link in MTU-sized segments.
func (s *stream) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		chunk := b
		if len(chunk) > s.profile.MTU {
			chunk = chunk[:s.profile.MTU]
		}
		n, err := s.writeSegment(chunk)
		total += n
		if err != nil {
			return total, err
		}
		b = b[n:]
	}
	return total, nil
}

func (s *stream) writeSegment(chunk []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return 0, net.ErrClosed
		}
		if !s.writeDeadline.IsZero() && !time.Now().Before(s.writeDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		if s.queued+len(chunk) <= s.profile.BufferBytes || s.queued == 0 {
			break
		}
		s.wCond.Wait()
	}
	// Partition, injected fault (its ErrorRate draws from the seeded
	// PRNG), hub mode: checked in this order, and only while something
	// on the network is impaired, so a clean link takes no network lock.
	var hub *medium
	var extraLatency time.Duration
	if s.net != nil && s.net.impaired.Load() {
		if s.net.linkDown(s.from, s.to) {
			return 0, ErrLinkDown
		}
		if f, ok := s.net.fault(s.from, s.to); ok {
			if s.net.rng.chance(f.ErrorRate) {
				return 0, ErrInjected
			}
			extraLatency = f.ExtraLatency
		}
		hub = s.hub()
	}
	var deliverAt time.Time
	if hub != nil {
		// Hub mode: the whole collision domain carries this segment.
		deliverAt = hub.reserve(len(chunk)).Add(s.profile.Latency + extraLatency)
	} else if s.profile.BandwidthBPS > 0 || s.profile.Latency+extraLatency > 0 {
		now := time.Now()
		txStart := s.nextFree
		if txStart.Before(now) {
			txStart = now
		}
		txEnd := txStart.Add(s.profile.transmitDuration(len(chunk)))
		s.nextFree = txEnd
		deliverAt = txEnd.Add(s.profile.Latency + extraLatency)
	}
	// else: unshaped link — the segment is deliverable immediately
	// (zero deliverAt), and neither side needs to read the clock.
	s.enqueue(chunk, deliverAt)
	s.queued += len(chunk)
	s.rCond.Signal()
	return len(chunk), nil
}

// enqueue copies chunk onto the queue. A chunk due at once joins a tail
// segment due at once when its buffer has room: a read takes both in
// one call either way, and small writes stop costing a buffer each.
// Consumed slots before head are reclaimed by sliding the live tail
// down, but only when the array is full and at least half consumed, so
// each slot moves at most once per use and the array stays within a
// small multiple of the longest queue. Caller holds s.mu.
func (s *stream) enqueue(chunk []byte, deliverAt time.Time) {
	if last := len(s.queue) - 1; last >= s.head && deliverAt.IsZero() {
		if t := &s.queue[last]; t.deliverAt.IsZero() && len(t.data)+len(chunk) <= cap(t.data) {
			t.data = append(t.data, chunk...)
			return
		}
	}
	if len(s.queue) == cap(s.queue) && s.head > 0 && 2*s.head >= len(s.queue) {
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue = s.queue[:n]
		s.head = 0
	}
	data := s.getSegBuf(len(chunk))
	copy(data, chunk)
	s.queue = append(s.queue, segment{data: data, buf: data, deliverAt: deliverAt})
}

// getSegBuf returns a buffer of length n (n <= MTU), reusing a drained
// segment buffer when possible. Fresh buffers are allocated with MTU
// capacity so every recycled buffer fits every future chunk — partial
// tail chunks must not fragment the freelist into unusable sizes.
// Caller holds s.mu.
func (s *stream) getSegBuf(n int) []byte {
	if last := len(s.free) - 1; last >= 0 && cap(s.free[last]) >= n {
		b := s.free[last][:n]
		s.free[last] = nil
		s.free = s.free[:last]
		return b
	}
	c := s.profile.MTU
	if c < n {
		c = n
	}
	return make([]byte, n, c)
}

// Read blocks until data is deliverable, the stream is closed (EOF after
// drain), or the read deadline expires. Like a socket read, it returns
// every deliverable byte that fits in b: consecutive segments are
// drained until b is full or the next one is not yet due.
func (s *stream) Read(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if !s.readDeadline.IsZero() && !time.Now().Before(s.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		if s.head < len(s.queue) {
			head := &s.queue[s.head]
			if !head.deliverAt.IsZero() {
				if wait := time.Until(head.deliverAt); wait > 0 {
					if wait <= s.net.spinWindow() {
						// Short wait: spin for precision. The lock is
						// released so writers keep pacing; the queue is
						// re-examined from scratch afterwards.
						deliverAt := head.deliverAt
						s.mu.Unlock()
						spinUntil(deliverAt)
						s.mu.Lock()
						continue
					}
					s.wakeReaderAt(head.deliverAt)
					s.rCond.Wait()
					continue
				}
			}
			n := s.drain(b)
			s.wCond.Broadcast()
			return n, nil
		}
		if s.closed {
			return 0, io.EOF
		}
		s.rCond.Wait()
	}
}

// drain copies queued data into b, starting with the head segment
// (which the caller found deliverable) and continuing while b has room
// and the next segment is due. A drained segment's buffer goes back on
// the freelist and its slot is zeroed. Caller holds s.mu.
func (s *stream) drain(b []byte) int {
	n := 0
	for n < len(b) && s.head < len(s.queue) {
		seg := &s.queue[s.head]
		if n > 0 && !seg.deliverAt.IsZero() && seg.deliverAt.After(time.Now()) {
			break
		}
		c := copy(b[n:], seg.data)
		n += c
		seg.data = seg.data[c:]
		if len(seg.data) > 0 {
			break
		}
		if len(s.free) < s.maxFree() {
			s.free = append(s.free, seg.buf)
		}
		*seg = segment{}
		s.head++
	}
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.queued -= n
	return n
}

// wakeReaderAt arms a timer to broadcast to blocked readers at t.
// Caller holds s.mu.
func (s *stream) wakeReaderAt(t time.Time) {
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	if s.rTimer != nil {
		s.rTimer.Stop()
	}
	s.rTimer = time.AfterFunc(d, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.rCond.Broadcast()
	})
}

// hub returns the network's shared medium when hub mode applies to this
// stream (inter-host traffic only; loopback is exempt).
func (s *stream) hub() *medium {
	if s.net == nil || s.from == s.to {
		return nil
	}
	return s.net.sharedMedium()
}

func (s *stream) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.rCond.Broadcast()
	s.wCond.Broadcast()
}

func (s *stream) setReadDeadline(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readDeadline = t
	if s.rTimer != nil {
		s.rTimer.Stop()
		s.rTimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		s.rTimer = time.AfterFunc(d, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.rCond.Broadcast()
		})
	}
	s.rCond.Broadcast()
}

func (s *stream) setWriteDeadline(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeDeadline = t
	if s.wTimer != nil {
		s.wTimer.Stop()
		s.wTimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		s.wTimer = time.AfterFunc(d, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.wCond.Broadcast()
		})
	}
	s.wCond.Broadcast()
}

// Conn is a shaped stream connection between two hosts.
type Conn struct {
	local  Addr
	remote Addr
	host   *Host
	read   *stream // data flowing toward us
	write  *stream // data we send

	closeOnce sync.Once
}

var _ net.Conn = (*Conn)(nil)

// newConnPair builds the two endpoints of a connection from dialer d to
// listener host p on the given port.
func newConnPair(d, p *Host, port int, profile LinkProfile) (client, server *Conn) {
	toServer := newStream(d.net, d.name, p.name, profile)
	toClient := newStream(d.net, p.name, d.name, profile)
	clientAddr := Addr{Host: d.name, Port: ephemeralPort(d)}
	serverAddr := Addr{Host: p.name, Port: port}
	client = &Conn{local: clientAddr, remote: serverAddr, host: d, read: toClient, write: toServer}
	server = &Conn{local: serverAddr, remote: clientAddr, host: p, read: toServer, write: toClient}
	return client, server
}

func ephemeralPort(h *Host) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nextPort == 0 {
		h.nextPort = 49152
	}
	h.nextPort++
	return h.nextPort
}

// Read reads data from the connection.
func (c *Conn) Read(b []byte) (int, error) { return c.read.Read(b) }

// Write writes data to the connection, subject to shaping and
// backpressure.
func (c *Conn) Write(b []byte) (int, error) { return c.write.Write(b) }

// Close closes both directions.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.read.close()
		c.write.close()
		if c.host != nil {
			c.host.untrack(c)
		}
	})
	return nil
}

// LocalAddr returns the local endpoint address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the remote endpoint address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.read.setReadDeadline(t)
	c.write.setWriteDeadline(t)
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.read.setReadDeadline(t)
	return nil
}

// SetWriteDeadline sets the write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.write.setWriteDeadline(t)
	return nil
}
