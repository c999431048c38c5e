package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/netemu"
)

// payloadSizes straddles largePayload, the size from which a payload is
// written by reference and read past the read buffer.
var payloadSizes = []int{0, 1, largePayload - 1, largePayload, largePayload + 1, 64 << 10, 1<<20 - 3}

// readLog is a net.Conn that logs where each Read put its bytes, and
// with chop set returns 1–7 bytes per Read. Only the frameConn's single
// reader uses it.
type readLog struct {
	net.Conn
	chop *rand.Rand
	log  []readRecord
}

type readRecord struct {
	dst uintptr
	n   int
}

func (c *readLog) Read(p []byte) (int, error) {
	if c.chop != nil && len(p) > 1 {
		p = p[:min(len(p), 1+c.chop.IntN(7))]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.log = append(c.log, readRecord{uintptr(unsafe.Pointer(unsafe.SliceData(p))), n})
	}
	return n, err
}

// checkDirectSuffix asserts that the reads logged since the last call
// put payload's bytes straight into it as one run to its end, after a
// prefix of at most largePayload bytes copied out of the read buffer.
func (c *readLog) checkDirectSuffix(t *testing.T, payload []byte) {
	t.Helper()
	defer func() { c.log = c.log[:0] }()
	base, end := uintptr(unsafe.Pointer(unsafe.SliceData(payload))), uintptr(len(payload))
	start, next := end, uintptr(0)
	for _, r := range c.log {
		if r.dst < base || r.dst-base >= end {
			continue // a fill of the read buffer
		}
		off := r.dst - base
		if start == end {
			start = off
		} else if off != next {
			t.Fatalf("%d-byte payload: direct read at offset %d, want %d", len(payload), off, next)
		}
		next = off + uintptr(r.n)
	}
	if start != end && next != end {
		t.Fatalf("%d-byte payload: direct reads end at offset %d, not at its end", len(payload), next)
	}
	if start > largePayload {
		t.Fatalf("%d-byte payload: %d bytes came through the read buffer, bound %d", len(payload), start, largePayload)
	}
}

// fill writes the payload pattern of frame seq of writer w.
func fill(b []byte, w, seq int) {
	for i := range b {
		b[i] = byte(i*7 + w*31 + seq*13)
	}
}

// scriptFrame is one frame of a writer's script.
type scriptFrame struct {
	header   frameHeader
	size     int  // payload length; control frames carry none
	oversize bool // write must refuse it
}

// newWireScript returns writer w's frames in send order: a deliver
// frame of every size in payloadSizes, two control frames and, for
// writer 0, an oversize frame, shuffled.
func newWireScript(rng *rand.Rand, w int) []scriptFrame {
	from := fmt.Sprintf("w%d", w)
	var script []scriptFrame
	for _, size := range payloadSizes {
		script = append(script, scriptFrame{size: size})
	}
	script = append(script, scriptFrame{size: -1}, scriptFrame{size: -1})
	if w == 0 {
		script = append(script, scriptFrame{oversize: true})
	}
	rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	for seq := range script {
		sf := &script[seq]
		if sf.size < 0 {
			sf.size = 0
			sf.header = frameHeader{Type: frameAck, From: from, ID: uint64(seq), PathID: PathID(fmt.Sprintf("a#%d", seq))}
			continue
		}
		sf.header = frameHeader{
			Type:    frameDeliver,
			From:    from,
			Dst:     core.PortRef{Translator: "b/umiddle/sink", Port: "in"},
			Src:     core.PortRef{Translator: core.TranslatorID("a/umiddle/" + from), Port: "out"},
			MsgType: "application/octet-stream",
			Seq:     uint64(seq),
			Sent:    time.Unix(0, int64(1_700_000_000_000_000_000+seq)),
			Headers: map[string]string{"size": fmt.Sprint(sf.size)},
		}
	}
	return script
}

// TestLargePayloadWireProperty: concurrent writers on one frameConn
// send payloads on both sides of largePayload mixed with control
// frames, over an unshaped link, a shaped one and a reader that gets
// 1–7 bytes per Read. Every frame decodes field-exact and in per-writer
// order, each large payload past its buffered prefix is read straight
// into the pooled buffer, an oversize frame is refused without harming
// the stream, and a writer's buffer is its own again once write
// returns: the writers overwrite it at once. A solo writer's bytes
// equal encodeFrame's, and after a failed write no batch holds a
// reference.
func TestLargePayloadWireProperty(t *testing.T) {
	const writers = 3
	oversize := make([]byte, maxFrameSize+1)
	for _, tc := range []struct {
		name string
		link netemu.LinkProfile
		chop bool
	}{
		{"unshaped", netemu.Unlimited(), false},
		{"shaped", netemu.LinkProfile{BandwidthBPS: 1_000_000_000, Latency: 50 * time.Microsecond, MTU: 1500}, false},
		{"chopped", netemu.Unlimited(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(44, uint64(len(tc.name))))
			client, server := linkPair(t, tc.link)
			rl := &readLog{Conn: server}
			if tc.chop {
				rl.chop = rand.New(rand.NewPCG(7, 44))
			}
			wfc, rfc := newFrameConn(client), newFrameConn(rl)

			scripts := make([][]scriptFrame, writers)
			want := 0
			for w := range scripts {
				scripts[w] = newWireScript(rng, w)
				want += len(scripts[w])
			}
			want-- // writer 0's oversize frame never reaches the wire
			var wg sync.WaitGroup
			defer wg.Wait()
			defer client.Close() // a failed read must not leave writers blocked
			for w, script := range scripts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 1<<20)
					for seq, sf := range script {
						f := frame{header: sf.header, payload: buf[:sf.size]}
						fill(f.payload, w, seq)
						if sf.oversize {
							f.payload = oversize
						}
						err := wfc.write(&f)
						if sf.oversize {
							if err == nil {
								t.Errorf("writer %d: oversize frame accepted", w)
							}
							continue
						}
						if err != nil {
							t.Errorf("writer %d frame %d: %v", w, seq, err)
							return
						}
						clear(f.payload) // the payload is the writer's again
					}
				}()
			}

			next := make([]int, writers)
			for i := 0; i < want; i++ {
				var got frame
				if err := rfc.read(&got); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				var w int
				if _, err := fmt.Sscanf(got.header.From, "w%d", &w); err != nil || w < 0 || w >= writers {
					t.Fatalf("frame %d from unknown writer %q", i, got.header.From)
				}
				script := scripts[w]
				if next[w] < len(script) && script[next[w]].oversize {
					next[w]++
				}
				seq := next[w]
				next[w]++
				if seq >= len(script) || !reflect.DeepEqual(got.header, script[seq].header) {
					t.Fatalf("writer %d: frame decoded as\n %+v\nwant frame %d\n %+v", w, got.header, seq, script[min(seq, len(script)-1)].header)
				}
				wantPayload := make([]byte, script[seq].size)
				fill(wantPayload, w, seq)
				if !bytes.Equal(got.payload, wantPayload) {
					t.Fatalf("writer %d frame %d: %d-byte payload differs from the %d bytes sent", w, seq, len(got.payload), len(wantPayload))
				}
				rl.checkDirectSuffix(t, got.payload)
				got.release()
			}
			wg.Wait()
		})
	}

	t.Run("solo", func(t *testing.T) {
		rec := &recordConn{}
		fc := newFrameConn(rec)
		var want []byte
		for seq, sf := range newWireScript(rand.New(rand.NewPCG(44, 0)), 1) {
			f := frame{header: sf.header, payload: make([]byte, sf.size)}
			fill(f.payload, 1, seq)
			wire, err := encodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, wire...)
			if err := fc.write(&f); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(rec.buf.Bytes(), want) {
			t.Fatalf("solo writer wrote %d bytes, not encodeFrame's %d", rec.buf.Len(), len(want))
		}
	})

	t.Run("backpressure", func(t *testing.T) {
		// With a flush in flight, writers fill the next batch to
		// maxBatchBytes, half of it referenced, half inline; the next
		// writer must wait for the flush.
		gc := newGatedConn()
		fc := newFrameConn(gc)
		frames := []frame{
			{header: frameHeader{Type: frameDeliver, From: "a"}, payload: make([]byte, 64<<10)},
			{header: frameHeader{Type: frameDeliver, From: "a"}, payload: make([]byte, 8<<10)},
		}
		errs := make(chan error, 64)
		start := func(f *frame) { go func() { errs <- fc.write(f) }() }
		start(&frames[1])
		<-gc.entered
		writers := 1
		batched := func() int {
			fc.wmu.Lock()
			defer fc.wmu.Unlock()
			if fc.batch == nil {
				return 0
			}
			return fc.batch.frames
		}
		for pending := 0; pending < maxBatchBytes; writers++ {
			f := &frames[writers%2]
			wire, err := encodeFrame(*f)
			if err != nil {
				t.Fatal(err)
			}
			pending += len(wire)
			start(f)
			waitFor(t, 5*time.Second, func() bool { return batched() == writers })
		}
		start(&frames[0])
		time.Sleep(50 * time.Millisecond)
		if got := batched(); got != writers-1 {
			t.Fatalf("a writer joined a full batch: %d frames batched, want %d", got, writers-1)
		}
		gc.admit <- nil // the leader's own frame
		for done := 0; done <= writers; {
			select {
			case <-gc.entered:
				gc.admit <- nil
			case err := <-errs:
				if err != nil {
					t.Fatal(err)
				}
				done++
			}
		}
	})

	t.Run("sticky_error", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(44, 1))
		for round := 0; round < 5; round++ {
			gc := newGatedConn()
			fc := newFrameConn(gc)
			large := frame{header: frameHeader{Type: frameDeliver, From: "a"}, payload: make([]byte, largePayload+rng.IntN(64<<10))}
			leader := make(chan error, 1)
			go func() { leader <- fc.write(&large) }()
			<-gc.entered
			followers := startWriters(t, fc, &large, 1+rng.IntN(4))
			boom := errors.New("boom")
			gc.admit <- boom
			if err := <-leader; !errors.Is(err, boom) {
				t.Fatalf("leader: err = %v, want %v", err, boom)
			}
			for i := 0; i < cap(followers); i++ {
				if err := <-followers; !errors.Is(err, boom) {
					t.Fatalf("follower %d: err = %v, want %v", i, err, boom)
				}
			}
			fc.wmu.Lock()
			for _, b := range []*writeBatch{fc.batch, fc.spare} {
				if b == nil {
					continue
				}
				for i, r := range b.refs[:cap(b.refs)] {
					if r.payload != nil {
						t.Fatalf("round %d: a batch still references a %d-byte payload (slot %d) after the write failed", round, len(r.payload), i)
					}
				}
			}
			for i, v := range fc.vec[:cap(fc.vec)] {
				if v != nil {
					t.Fatalf("round %d: the flush vector still holds %d bytes (slot %d)", round, len(v), i)
				}
			}
			fc.wmu.Unlock()
		}
	})
}

// recordConn keeps every byte written to it.
type recordConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
