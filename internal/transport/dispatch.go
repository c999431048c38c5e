package transport

import (
	"sync"

	"repro/internal/core"
)

// inbound is one received deliver frame plus its completion callback
// (queue-depth accounting and read-loop backpressure release).
type inbound struct {
	f    frame
	done func()
}

// dstQueue is the FIFO of pending deliveries for one destination port.
// At most one worker drains a given queue at a time, so deliveries to
// one destination stay ordered.
type dstQueue struct {
	dst    core.PortRef
	frames []inbound
	spare  []inbound // drained batch array, swapped back in for reuse
	queued bool      // on the ready list, or being drained by a worker
}

// deliverWorkers bounds the concurrent inbound delivery workers. One
// worker drains one destination at a time, so independent destinations
// proceed in parallel up to this bound.
const deliverWorkers = 8

// dispatcher fans inbound deliveries out to a bounded worker pool,
// keyed by destination port. It replaces the single per-connection
// delivery worker: independent destinations no longer serialize behind
// one slow Translator.Deliver, while per-destination ordering (what the
// path sequence numbers promise) is preserved. Control frames never
// enter the dispatcher — the read loops handle them inline, keeping the
// guarantee that acks and errors cannot queue behind deliveries.
type dispatcher struct {
	m *Module

	mu      sync.Mutex
	queues  map[core.PortRef]*dstQueue
	ready   []*dstQueue
	spares  [][]inbound // drained batch arrays from retired queues
	workers int
	closed  bool
}

// maxSpares bounds the retired-array pool. Hot destinations drain to
// empty constantly; without the pool, every dry spell would discard the
// queue's warmed-up arrays and the next burst would regrow them from
// scratch, one allocation per few messages.
const maxSpares = 16

// getSpare pops a pooled batch array (nil if none). Caller holds d.mu.
func (d *dispatcher) getSpare() []inbound {
	if n := len(d.spares); n > 0 {
		s := d.spares[n-1]
		d.spares[n-1] = nil
		d.spares = d.spares[:n-1]
		return s
	}
	return nil
}

// putSpare returns a batch array to the pool. Caller holds d.mu.
func (d *dispatcher) putSpare(s []inbound) {
	if cap(s) > 0 && len(d.spares) < maxSpares {
		d.spares = append(d.spares, s[:0])
	}
}

func newDispatcher(m *Module) *dispatcher {
	return &dispatcher{m: m, queues: make(map[core.PortRef]*dstQueue)}
}

// enqueue queues one deliver frame for its destination, spawning a
// worker if the pool has capacity. Safe after close: the frame is
// discarded with its accounting settled.
func (d *dispatcher) enqueue(f *frame, done func()) {
	dst := f.header.Dst
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		f.release()
		done()
		return
	}
	q := d.queues[dst]
	if q == nil {
		q = &dstQueue{dst: dst, frames: d.getSpare(), spare: d.getSpare()}
		d.queues[dst] = q
	}
	q.frames = append(q.frames, inbound{f: *f, done: done})
	if !q.queued {
		q.queued = true
		d.ready = append(d.ready, q)
	}
	if d.workers < deliverWorkers && len(d.ready) > 0 && d.m.trackWorker() {
		d.workers++
		go d.run()
	}
	d.mu.Unlock()
}

// run drains ready destination queues until none remain, then exits
// (workers are spawned on demand rather than parked).
func (d *dispatcher) run() {
	defer d.m.wg.Done()
	d.mu.Lock()
	defer func() {
		d.workers--
		d.mu.Unlock()
	}()
	for !d.closed && len(d.ready) > 0 {
		q := d.ready[0]
		d.ready = d.ready[1:]
		for !d.closed && len(q.frames) > 0 {
			// Swap the whole pending batch out and process it unlocked.
			// Producers append to the (reused) spare array meanwhile, so
			// neither side's append has to regrow on every message — the
			// two arrays ping-pong between pending and in-flight roles.
			batch := q.frames
			q.frames = q.spare[:0]
			q.spare = nil
			d.mu.Unlock()
			for i := range batch {
				d.m.handleInbound(&batch[i])
				batch[i] = inbound{}
			}
			d.mu.Lock()
			if d.closed {
				break
			}
			q.spare = batch[:0]
		}
		q.queued = false
		if len(q.frames) == 0 {
			delete(d.queues, q.dst)
			d.putSpare(q.frames)
			d.putSpare(q.spare)
		}
	}
}

// close discards every queued delivery (settling its accounting) and
// stops the workers.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	queues := d.queues
	d.queues = make(map[core.PortRef]*dstQueue)
	d.ready = nil
	d.mu.Unlock()
	for _, q := range queues {
		for i := range q.frames {
			q.frames[i].f.release()
			q.frames[i].done()
		}
	}
}

// handleInbound delivers one inbound frame to its local translator and
// settles the frame's buffer and accounting.
func (m *Module) handleInbound(in *inbound) {
	f := &in.f
	// An in-transit frame (non-empty route) is not ours: forward it to
	// its next hop instead of delivering. Running here keeps forwards on
	// the bounded worker pool with the sender backpressured through the
	// connection semaphore, and preserves per-destination ordering.
	if len(f.header.Route) > 0 {
		m.forwardFrame(f)
		f.release()
		in.done()
		return
	}
	m.deliverLocal(f.header.Dst, f.messageZeroCopy())
	if f.pooled && len(f.payload) > 0 {
		// The buffer moves to the quarantine ring instead of the pool:
		// it is recycled only after its checksum verifies that no
		// translator wrote into it post-return.
		m.quar.admit(f.payload)
		f.payload = nil
		f.pooled = false
	} else {
		f.release()
	}
	in.done()
}
