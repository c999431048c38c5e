package netemu

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestStreamReadWriteProperty drives one stream with seeded random
// Write and Read sizes (1 byte to 3×MTU, now and then a 64 KiB read) on
// an unshaped and a shaped link. The byte stream must arrive identical
// and in order. On the shaped link each paced chunk keeps a segment of
// its own, and no Read may return a byte before its segment's
// deliverAt. A 64 KiB Read must drain every queued
// segment that is due, and the queue's array must stay bounded while a
// reader keeps up with 100k segments.
func TestStreamReadWriteProperty(t *testing.T) {
	const mtu = 1500
	for _, tc := range []struct {
		name string
		p    LinkProfile
	}{
		{"unshaped", LinkProfile{MTU: mtu}},
		{"shaped", LinkProfile{BandwidthBPS: 100_000_000, Latency: 50 * time.Microsecond, MTU: mtu}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStream(newTestNetwork(t, Unlimited()), "h1", "h2", tc.p)
			rng := rand.New(rand.NewPCG(42, uint64(len(tc.name))))
			type segRecord struct {
				end int // stream offset one past the segment's last byte
				at  time.Time
			}
			var sent, got []byte
			var segs []segRecord
			var due time.Time // deliverAt of the newest segment
			next := 0         // first segment not yet fully read
			read := func(b []byte) {
				t.Helper()
				n, err := s.Read(b)
				now := time.Now()
				if err != nil {
					t.Fatalf("Read: %v", err)
				}
				got = append(got, b[:n]...)
				for i := next; i < len(segs) && (i == 0 || segs[i-1].end < len(got)); i++ {
					if segs[i].at.After(now) {
						t.Fatalf("Read returned bytes of segment %d at %v, %v before its deliverAt", i, now, segs[i].at.Sub(now))
					}
				}
				for next < len(segs) && segs[next].end <= len(got) {
					next++
				}
			}
			write := func(size int) {
				t.Helper()
				chunk := make([]byte, size)
				for i := range chunk {
					chunk[i] = byte(len(sent) + i)
				}
				s.mu.Lock()
				live := len(s.queue) - s.head
				s.mu.Unlock()
				if _, err := s.Write(chunk); err != nil {
					t.Fatalf("Write: %v", err)
				}
				start := len(sent)
				sent = append(sent, chunk...)
				if tc.p.BandwidthBPS == 0 {
					return // every byte is due at once
				}
				// No reader runs concurrently, so the write's segments
				// are the queue's tail.
				s.mu.Lock()
				nsegs := (size + mtu - 1) / mtu
				if got := len(s.queue) - s.head - live; got != nsegs {
					t.Fatalf("paced %d-byte write queued %d segments, want %d of its own", size, got, nsegs)
				}
				for i, seg := range s.queue[len(s.queue)-nsegs:] {
					segs = append(segs, segRecord{end: min(start+(i+1)*mtu, len(sent)), at: seg.deliverAt})
					due = seg.deliverAt
				}
				s.mu.Unlock()
			}
			queued := func() int {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.queued
			}

			buf := make([]byte, 64<<10)
			for op := 0; op < 2000; op++ {
				if rng.IntN(2) == 0 && queued()+3*mtu <= s.profile.BufferBytes {
					write(1 + rng.IntN(3*mtu))
					continue
				}
				if queued() == 0 {
					continue
				}
				size := 1 + rng.IntN(3*mtu)
				if rng.IntN(8) == 0 {
					size = len(buf)
				}
				read(buf[:size])
			}
			for queued() > 0 {
				read(buf)
			}
			if !bytes.Equal(sent, got) {
				t.Fatalf("received %d bytes, want %d; content differs", len(got), len(sent))
			}

			// Ten queued segments, all due: one 64 KiB Read takes them all.
			write(10 * mtu)
			time.Sleep(time.Until(due))
			before := len(got)
			read(buf)
			if n := len(got) - before; n != 10*mtu {
				t.Fatalf("64 KiB Read returned %d bytes, want all %d queued", n, 10*mtu)
			}
			if !bytes.Equal(sent, got) {
				t.Fatal("content differs after the multi-segment read")
			}
		})
	}

	t.Run("bounded", func(t *testing.T) {
		// The reader keeps up but never empties the queue, so the
		// array's head never resets to zero on its own.
		const segMTU, live, segments = 64, 256, 100_000
		s := newStream(newTestNetwork(t, Unlimited()), "h1", "h2", LinkProfile{MTU: segMTU, BufferBytes: live * segMTU})
		rng := rand.New(rand.NewPCG(7, 7))
		buf := make([]byte, 3*segMTU)
		written, maxCap := 0, 0 // written counts segments
		for written < segments {
			s.mu.Lock()
			queued := s.queued
			maxCap = max(maxCap, cap(s.queue))
			s.mu.Unlock()
			if size := 1 + rng.IntN(3*segMTU); queued+size <= s.profile.BufferBytes && rng.IntN(2) == 0 {
				if _, err := s.Write(buf[:size]); err != nil {
					t.Fatalf("Write: %v", err)
				}
				written += (size + segMTU - 1) / segMTU
			} else if queued > s.profile.BufferBytes/4 {
				if _, err := s.Read(buf[:1+rng.IntN(len(buf))]); err != nil {
					t.Fatalf("Read: %v", err)
				}
			}
		}
		for {
			s.mu.Lock()
			queued := s.queued
			s.mu.Unlock()
			if queued == 0 {
				break
			}
			s.Read(buf)
		}
		// At most live segments are queued at once. The array grows
		// only while more than half of it is live, so it stays within
		// about 4× that, plus the allocator's rounding.
		if maxCap > 8*live {
			t.Fatalf("queue capacity reached %d over %d segments, want <= %d", maxCap, segments, 8*live)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, seg := range s.queue[:cap(s.queue)] {
			if seg.buf != nil || seg.data != nil {
				t.Fatalf("drained queue slot %d still holds a buffer", i)
			}
		}
	})
}

// TestImpairmentToggle toggles a partition, an injected fault and hub
// mode on and off while a second connection streams between the same
// hosts. The next write on the probed connection must see each change,
// and clearing all three must restore the unimpaired fast path. A
// seeded ErrorRate of 0.5 must fail the same writes as before the fast
// path existed.
func TestImpairmentToggle(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		n := newTestNetwork(t, Unlimited())
		client, _ := dialPair(t, n)
		n.SetFault("h1", "h2", Fault{ErrorRate: 0.5})
		// Recorded from the per-segment lookups that took the network
		// lock on every write: 'x' is ErrInjected, '.' a write that went
		// through.
		const want = "xx.xxx.x.x.....x.x....x..xx...xxx.xxxxx.xxx..xxxx..xx..x....xx.x"
		seq := make([]byte, len(want))
		for i := range seq {
			_, err := client.Write([]byte{1})
			switch {
			case err == nil:
				seq[i] = '.'
			case errors.Is(err, ErrInjected):
				seq[i] = 'x'
			default:
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if string(seq) != want {
			t.Fatalf("failure sequence\n got %s\nwant %s", seq, want)
		}
	})

	n := newTestNetwork(t, Unlimited())
	client, server := dialPair(t, n)

	// Background stream h1 -> h2 on a second connection, impaired by
	// the same toggles.
	l, err := n.Host("h2").Listen(81)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() {
		if c, err := l.Accept(); err == nil {
			io.Copy(io.Discard, c)
		}
	}()
	bg, err := n.Host("h1").Dial(t.Context(), "h2:81")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bgErr error
	bgWrites := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := bg.Write(chunk)
			if err != nil && !errors.Is(err, ErrLinkDown) && !errors.Is(err, ErrInjected) {
				bgErr = err
				return
			}
			bgWrites++
		}
	}()

	tail := func() time.Time {
		s := client.write
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue[len(s.queue)-1].deliverAt
	}
	buf := make([]byte, 4096)
	// writeOK writes size bytes on the probed connection, checks the
	// segment's deliverAt against check, and reads the bytes back.
	writeOK := func(size int, check func(at time.Time)) {
		t.Helper()
		if _, err := client.Write(buf[:size]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		check(tail())
		if _, err := io.ReadFull(server, buf[:size]); err != nil {
			t.Fatalf("ReadFull: %v", err)
		}
	}
	fastPath := func() {
		t.Helper()
		if n.impaired.Load() {
			t.Fatal("network still impaired with every impairment cleared")
		}
		writeOK(100, func(at time.Time) {
			if !at.IsZero() {
				t.Fatalf("unshaped write paced to %v with nothing impaired", at)
			}
		})
	}
	writeErr := func(want error) {
		t.Helper()
		if _, err := client.Write([]byte{1}); !errors.Is(err, want) {
			t.Fatalf("write err = %v, want %v", err, want)
		}
	}

	const hubBPS, payload = 100_000_000, 1000
	for round := 0; round < 3; round++ {
		fastPath()

		n.SetLinkDown("h1", "h2", true)
		writeErr(ErrLinkDown)
		n.SetLinkDown("h1", "h2", false)
		fastPath()

		n.SetFault("h1", "h2", Fault{ErrorRate: 1})
		writeErr(ErrInjected)
		n.ClearFault("h1", "h2")
		fastPath()

		n.SetSharedMedium(hubBPS, EthernetHubOverheadBytes)
		before := time.Now()
		writeOK(payload, func(at time.Time) {
			minTx := LinkProfile{BandwidthBPS: hubBPS}.transmitDuration(payload + EthernetHubOverheadBytes)
			if at.Before(before.Add(minTx)) {
				t.Fatalf("hub mode did not pace the write: deliverAt %v after the write began, want >= %v", at.Sub(before), minTx)
			}
		})
		n.SetSharedMedium(0, 0)

		// All three at once, then all cleared.
		n.SetLinkDown("h1", "h2", true)
		n.SetFault("h1", "h2", Fault{ErrorRate: 1})
		n.SetSharedMedium(hubBPS, 0)
		writeErr(ErrLinkDown)
		n.SetLinkDown("h1", "h2", false)
		writeErr(ErrInjected)
		n.ClearFault("h1", "h2")
		n.SetSharedMedium(0, 0)
	}
	fastPath()

	close(stop)
	wg.Wait()
	if bgErr != nil {
		t.Fatalf("background writer: %v", bgErr)
	}
	if bgWrites == 0 {
		t.Fatal("background writer never wrote")
	}
}
