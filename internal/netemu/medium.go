package netemu

import (
	"sync"
	"time"
)

// medium models a shared half-duplex segment (the paper's 10 Mbps
// Ethernet hub): every frame between distinct hosts occupies the whole
// collision domain for its transmission time, so concurrent flows
// contend for the same bits per second.
type medium struct {
	mu       sync.Mutex
	bps      int64
	overhead int // per-frame framing overhead in bytes
	nextFree time.Time
}

// reserve claims the medium for n payload bytes and returns the
// transmission end time.
func (m *medium) reserve(n int) time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	start := m.nextFree
	if start.Before(now) {
		start = now
	}
	bits := int64(n+m.overhead) * 8
	end := start.Add(time.Duration(bits * int64(time.Second) / m.bps))
	m.nextFree = end
	return end
}

// SetSharedMedium switches the network into hub mode: all inter-host
// stream traffic shares one half-duplex segment of the given bandwidth,
// and each segment additionally pays overheadBytes of framing (Ethernet
// + IP + TCP headers ≈ 58 bytes per ~1500-byte frame). Per-link
// bandwidth shaping is bypassed for stream traffic while hub mode is on;
// latency and partitions still apply per link. Passing bps <= 0 turns
// hub mode off.
//
// The paper's testbed is three hosts on a 10 Mbps Ethernet hub, which is
// exactly this topology; the Figure 11 reproduction enables it.
func (n *Network) SetSharedMedium(bps int64, overheadBytes int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.noteImpairedLocked()
	if bps <= 0 {
		n.medium = nil
		return
	}
	n.medium = &medium{bps: bps, overhead: overheadBytes}
}

// sharedMedium returns the active hub, or nil.
func (n *Network) sharedMedium() *medium {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.medium
}

// EthernetHubOverheadBytes approximates Ethernet (18) + IP (20) + TCP
// (20) header bytes per frame.
const EthernetHubOverheadBytes = 58
