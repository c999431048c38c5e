package netemu

import (
	"errors"
	"time"
)

// ErrInjected is returned by stream writes that an injected fault failed.
var ErrInjected = errors.New("netemu: injected fault")

// Fault describes deterministic failure characteristics injected on one
// direction of traffic between two hosts. Faults compose with the link
// profile: latency adds to the profile's propagation delay, and rates
// draw from the network's seeded PRNG so runs are reproducible.
type Fault struct {
	// ExtraLatency is added one-way to every stream segment and datagram.
	ExtraLatency time.Duration
	// ErrorRate fails each stream segment write with ErrInjected with
	// this probability [0,1].
	ErrorRate float64
	// DropRate drops each datagram with this probability [0,1], in
	// addition to the link's LossRate.
	DropRate float64
}

// directedPair keys faults by traffic direction (from -> to).
type directedPair struct{ from, to string }

// SetFault injects a fault on traffic flowing from one host to another
// (one direction only; set both directions explicitly for a symmetric
// fault). A zero Fault clears any previous injection.
func (n *Network) SetFault(from, to string, f Fault) {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.noteImpairedLocked()
	if n.faults == nil {
		n.faults = make(map[directedPair]Fault)
	}
	if f == (Fault{}) {
		delete(n.faults, directedPair{from, to})
		return
	}
	n.faults[directedPair{from, to}] = f
}

// ClearFault removes a directed fault.
func (n *Network) ClearFault(from, to string) {
	n.SetFault(from, to, Fault{})
}

// fault returns the active fault for a traffic direction, if any.
func (n *Network) fault(from, to string) (Fault, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.faults[directedPair{from, to}]
	return f, ok
}

// DropConnections severs every established stream connection between two
// hosts, in both directions, and returns the number of connections
// dropped. Readers on both ends observe EOF (after draining in-flight
// data) and writers observe a closed stream — the emulator's equivalent
// of a TCP reset, used to test reconnection logic deterministically.
func (n *Network) DropConnections(a, b string) int {
	count := 0
	if h := n.Host(a); h != nil {
		count = h.dropConnsTo(b)
	}
	if a != b {
		if h := n.Host(b); h != nil {
			h.dropConnsTo(a)
		}
	}
	return count
}

// dropConnsTo closes this host's established connections whose remote
// endpoint is the named host, returning how many were closed.
func (h *Host) dropConnsTo(peer string) int {
	h.mu.Lock()
	var victims []*Conn
	for c := range h.conns {
		if c.remote.Host == peer {
			victims = append(victims, c)
		}
	}
	h.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	return len(victims)
}

// Partition takes the link between two hosts down and severs every
// established stream connection between them, so the failure is observed
// immediately rather than on the next write. Dials, stream writes, and
// datagrams between the hosts fail until Heal is called.
func (n *Network) Partition(a, b string) {
	n.SetLinkDown(a, b, true)
	n.DropConnections(a, b)
}

// Heal restores the link between two partitioned hosts. Severed
// connections stay severed; endpoints reconnect on their own schedule.
func (n *Network) Heal(a, b string) {
	n.SetLinkDown(a, b, false)
}
