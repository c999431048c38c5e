// Package netemu provides an in-process network emulator used as the
// physical substrate for every emulated communication platform in this
// repository.
//
// The paper's testbed is three ThinkPads joined by a 10 Mbps Ethernet hub,
// plus Bluetooth radios. Neither is available here, so netemu supplies the
// closest synthetic equivalent: named virtual hosts joined by duplex links
// with token-bucket bandwidth shaping and propagation latency, a multicast
// datagram bus for discovery protocols (SSDP, Bluetooth inquiry), and
// fault injection (link down, loss). Links expose net.Conn and
// net.Listener so protocol code is written exactly as it would be against
// a real network.
package netemu

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Common errors returned by the emulator.
var (
	// ErrHostExists is returned when registering a duplicate host name.
	ErrHostExists = errors.New("netemu: host already exists")
	// ErrUnknownHost is returned when dialing a host that was never registered.
	ErrUnknownHost = errors.New("netemu: unknown host")
	// ErrConnRefused is returned when no listener is bound to the target port.
	ErrConnRefused = errors.New("netemu: connection refused")
	// ErrLinkDown is returned when traffic is sent over a partitioned link.
	ErrLinkDown = errors.New("netemu: link down")
	// ErrNoLink is returned when two hosts on a segmented network share no
	// link: they can only communicate through a relaying host.
	ErrNoLink = errors.New("netemu: hosts share no link")
	// ErrClosed is returned when using a closed network, host, or listener.
	ErrClosed = errors.New("netemu: closed")
)

// LinkProfile describes the characteristics of one direction of a link.
type LinkProfile struct {
	// BandwidthBPS is the link bandwidth in bits per second. Zero means
	// unlimited (no shaping).
	BandwidthBPS int64
	// Latency is the one-way propagation delay added to every byte.
	Latency time.Duration
	// BufferBytes bounds the number of in-flight (queued but undelivered)
	// bytes per direction; writers block when the buffer is full, which
	// provides backpressure. Zero selects DefaultBufferBytes.
	BufferBytes int
	// MTU is the maximum segment size used when pacing writes. Zero
	// selects DefaultMTU. Smaller MTUs smooth pacing at a small CPU cost.
	MTU int
	// LossRate drops a fraction [0,1) of datagrams on the multicast bus.
	// Stream links are lossless (they model TCP).
	LossRate float64
}

// Default shaping parameters.
const (
	// DefaultBufferBytes is the per-direction in-flight byte cap.
	DefaultBufferBytes = 256 << 10
	// DefaultMTU is the pacing segment size.
	DefaultMTU = 1500
)

// Ethernet10Mbps mirrors the paper's 10 Mbps hub: the benchmarks in
// Section 5.3 report a 7.9 Mbps TCP baseline on this link.
func Ethernet10Mbps() LinkProfile {
	return LinkProfile{BandwidthBPS: 10_000_000, Latency: 500 * time.Microsecond}
}

// Bluetooth1_2 approximates a Bluetooth 1.2 ACL link (~723 kbps asymmetric
// peak, a few ms of latency), matching the paper's Bluetooth testbed.
func Bluetooth1_2() LinkProfile {
	return LinkProfile{BandwidthBPS: 723_000, Latency: 5 * time.Millisecond}
}

// Unlimited returns a profile with no shaping, for tests that only need
// connectivity.
func Unlimited() LinkProfile { return LinkProfile{} }

func (p LinkProfile) normalized() LinkProfile {
	if p.BufferBytes <= 0 {
		p.BufferBytes = DefaultBufferBytes
	}
	if p.MTU <= 0 {
		p.MTU = DefaultMTU
	}
	return p
}

// transmitDuration returns how long n bytes occupy the link.
func (p LinkProfile) transmitDuration(n int) time.Duration {
	if p.BandwidthBPS <= 0 || n <= 0 {
		return 0
	}
	bits := int64(n) * 8
	return time.Duration(bits * int64(time.Second) / p.BandwidthBPS)
}

type hostPair struct{ a, b string }

func makePair(x, y string) hostPair {
	if x > y {
		x, y = y, x
	}
	return hostPair{a: x, b: y}
}

// Network is a virtual network of named hosts. The zero value is not
// usable; construct with NewNetwork.
type Network struct {
	mu          sync.Mutex
	defaultLink LinkProfile
	hosts       map[string]*Host
	links       map[hostPair]LinkProfile
	segments    map[string]map[string]struct{} // link name -> member host names
	hostLinks   map[string]map[string]struct{} // host name -> link names
	down        map[hostPair]bool
	faults      map[directedPair]Fault
	groups      map[string]map[*GroupConn]struct{}
	medium      *medium
	// impaired is set, under mu, while a link is down, a fault is set or
	// hub mode is on; stream writes look those up only while it is set.
	impaired atomic.Bool
	spinWin  atomic.Int64 // read-pacing spin window (a time.Duration); <0 disables
	closed   bool
	rng      *splitMix64
	// disks models per-host non-volatile storage; entries survive
	// CrashNode/RestartNode and Network.Close (see Disk).
	disks map[string]*Disk
	// groupDrops counts datagrams discarded because a member's group
	// inbox was full — the silent UDP-like loss point load harnesses
	// must check instead of letting it skew latency tails.
	groupDrops atomic.Uint64
}

// GroupDrops returns the number of group datagrams dropped network-wide
// because a receiving member's inbox was full. Intentional losses
// (LossRate, faults, partitions) are not counted — this isolates the
// overflow signal that indicates a consumer fell behind the offered
// multicast rate.
func (n *Network) GroupDrops() uint64 { return n.groupDrops.Load() }

// SetSpinWindow overrides DefaultSpinWindow for this network's streams.
// Zero restores the default; a negative value disables spinning entirely
// (every paced read sleeps on a timer, trading RTT precision for CPU).
func (n *Network) SetSpinWindow(d time.Duration) {
	n.spinWin.Store(int64(d))
}

// spinWindow returns the effective spin window. Safe on a nil network
// (standalone streams never spin).
func (n *Network) spinWindow() time.Duration {
	if n == nil {
		return 0
	}
	switch d := time.Duration(n.spinWin.Load()); {
	case d < 0:
		return 0
	case d == 0:
		return DefaultSpinWindow
	default:
		return d
	}
}

// NewNetwork creates a network whose host pairs default to the given link
// profile unless overridden with SetLink.
func NewNetwork(defaultLink LinkProfile) *Network {
	return &Network{
		defaultLink: defaultLink.normalized(),
		hosts:       make(map[string]*Host),
		links:       make(map[hostPair]LinkProfile),
		down:        make(map[hostPair]bool),
		groups:      make(map[string]map[*GroupConn]struct{}),
		rng:         newSplitMix64(0x9e3779b97f4a7c15),
	}
}

// AddHost registers a new host on the network.
func (n *Network) AddHost(name string) (*Host, error) {
	if name == "" {
		return nil, fmt.Errorf("netemu: empty host name")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.hosts[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrHostExists, name)
	}
	h := &Host{
		name:      name,
		net:       n,
		listeners: make(map[int]*Listener),
	}
	n.hosts[name] = h
	return h, nil
}

// MustAddHost is AddHost that panics on error; for tests and examples.
func (n *Network) MustAddHost(name string) *Host {
	h, err := n.AddHost(name)
	if err != nil {
		panic(err)
	}
	return h
}

// Host returns a previously registered host, or nil.
func (n *Network) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[name]
}

// Hosts returns the names of all registered hosts, sorted.
func (n *Network) Hosts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.hosts))
	for name := range n.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetLink overrides the link profile between two hosts (both directions).
func (n *Network) SetLink(a, b string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[makePair(a, b)] = p.normalized()
}

// SetLinkDown partitions (or heals) the link between two hosts. While a
// link is down, dials fail, stream writes return ErrLinkDown, and
// datagrams between the hosts are dropped.
func (n *Network) SetLinkDown(a, b string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if down {
		n.down[makePair(a, b)] = true
	} else {
		delete(n.down, makePair(a, b))
	}
	n.noteImpairedLocked()
}

// noteImpairedLocked recomputes the impaired summary. Caller holds n.mu.
func (n *Network) noteImpairedLocked() {
	n.impaired.Store(len(n.down) > 0 || len(n.faults) > 0 || n.medium != nil)
}

// linkBetween returns the effective profile and partition state.
func (n *Network) linkBetween(a, b string) (LinkProfile, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	pair := makePair(a, b)
	p, ok := n.links[pair]
	if !ok {
		p = n.defaultLink
	}
	return p, n.down[pair]
}

func (n *Network) linkDown(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[makePair(a, b)]
}

// Close shuts down the network: all hosts, listeners, and group
// connections are closed. Established stream connections are closed too.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	groups := n.groups
	n.groups = make(map[string]map[*GroupConn]struct{})
	n.mu.Unlock()

	for _, h := range hosts {
		h.close()
	}
	for _, members := range groups {
		for gc := range members {
			gc.closeLocked()
		}
	}
	return nil
}

// Host is a named endpoint on a Network.
type Host struct {
	name string
	net  *Network

	mu        sync.Mutex
	listeners map[int]*Listener
	conns     map[*Conn]struct{}
	nextPort  int
	closed    bool
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Listen binds a stream listener on the given port. Port 0 selects an
// ephemeral port.
func (h *Host) Listen(port int) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		if h.nextPort == 0 {
			h.nextPort = 49152
		}
		for {
			h.nextPort++
			if _, ok := h.listeners[h.nextPort]; !ok {
				port = h.nextPort
				break
			}
		}
	}
	if _, ok := h.listeners[port]; ok {
		return nil, fmt.Errorf("netemu: port %d on %q already bound", port, h.name)
	}
	l := &Listener{
		host:    h,
		port:    port,
		backlog: make(chan *Conn, 64),
		done:    make(chan struct{}),
	}
	h.listeners[port] = l
	return l, nil
}

// Dial connects to "host:port" on the same network, honoring ctx
// cancellation and the link's propagation latency.
func (h *Host) Dial(ctx context.Context, address string) (net.Conn, error) {
	target, port, err := splitAddress(address)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	hostClosed := h.closed
	h.mu.Unlock()
	if hostClosed {
		return nil, fmt.Errorf("netemu: dial %s: %w", address, ErrClosed)
	}
	peer := h.net.Host(target)
	if peer == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, target)
	}
	if !h.net.reachable(h.name, target) {
		return nil, fmt.Errorf("netemu: dial %s: %w", address, ErrNoLink)
	}
	profile, down := h.net.linkBetween(h.name, target)
	if down {
		return nil, fmt.Errorf("netemu: dial %s: %w", address, ErrLinkDown)
	}

	// Model connection establishment as one round trip.
	if rtt := 2 * profile.Latency; rtt > 0 {
		t := time.NewTimer(rtt)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	peer.mu.Lock()
	l, ok := peer.listeners[port]
	peer.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netemu: dial %s: %w", address, ErrConnRefused)
	}

	clientConn, serverConn := newConnPair(h, peer, port, profile)
	select {
	case l.backlog <- serverConn:
	case <-l.done:
		clientConn.Close()
		serverConn.Close()
		return nil, fmt.Errorf("netemu: dial %s: %w", address, ErrConnRefused)
	case <-ctx.Done():
		clientConn.Close()
		serverConn.Close()
		return nil, ctx.Err()
	}
	h.track(clientConn)
	peer.track(serverConn)
	return clientConn, nil
}

func (h *Host) track(c *Conn) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conns == nil {
		h.conns = make(map[*Conn]struct{})
	}
	h.conns[c] = struct{}{}
}

func (h *Host) untrack(c *Conn) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.conns, c)
}

func (h *Host) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	listeners := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]*Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// JoinGroup subscribes the host to a named multicast group and returns a
// datagram endpoint for it.
func (h *Host) JoinGroup(group string) (*GroupConn, error) {
	return h.net.joinGroup(h, group)
}

// Listener accepts stream connections on a host port.
type Listener struct {
	host    *Host
	port    int
	backlog chan *Conn

	closeOnce sync.Once
	done      chan struct{}
}

var _ net.Listener = (*Listener)(nil)

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close unbinds the listener. Established connections are unaffected.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.host.mu.Lock()
		delete(l.host.listeners, l.port)
		l.host.mu.Unlock()
	})
	return nil
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr {
	return Addr{Host: l.host.name, Port: l.port}
}

// Port returns the bound port.
func (l *Listener) Port() int { return l.port }

// Addr is the net.Addr implementation used by the emulator.
type Addr struct {
	Host string
	Port int
}

var _ net.Addr = Addr{}

// Network returns the synthetic network name.
func (Addr) Network() string { return "netemu" }

// String renders "host:port".
func (a Addr) String() string { return net.JoinHostPort(a.Host, strconv.Itoa(a.Port)) }

func splitAddress(address string) (host string, port int, err error) {
	i := strings.LastIndexByte(address, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("netemu: address %q missing port", address)
	}
	host = address[:i]
	port, err = strconv.Atoi(address[i+1:])
	if err != nil || port <= 0 {
		return "", 0, fmt.Errorf("netemu: address %q has invalid port", address)
	}
	return host, port, nil
}

// splitMix64 is a tiny deterministic PRNG used for datagram loss so the
// emulator has no dependency on math/rand global state.
type splitMix64 struct {
	mu    sync.Mutex
	state uint64
}

func newSplitMix64(seed uint64) *splitMix64 { return &splitMix64{state: seed} }

func (s *splitMix64) next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance returns true with probability p.
func (s *splitMix64) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(s.next()>>11)/(1<<53) < p
}
