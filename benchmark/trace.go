package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from outside the runtime: the workloads record one span around
// each call they make into a layer's public function, and one root span
// per user op that the call spans hang off. Spans stay in a fixed ring in
// memory (the most recent traceCap are kept, the rest are counted as
// dropped, so the recording cost per span is the same for the whole run)
// and are written out when the workload ends. Counter snapshots are taken
// at the same epoch boundaries the spans are.
//
// A nil *tracer is the untraced run: every method is a nil check.

const traceCap = 1 << 16

type span struct {
	id, parent uint64
	op         uint64 // shared by the spans of one user op
	name       string
	pe         int
	start, end int64 // ns since tracer start
}

type counterSample struct {
	pe    int
	label string
	at    int64
	c     counters
}

type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	spans []span
	locks [64]sync.Mutex // slot i is guarded by locks[i%64]: two ids a full lap apart share a slot

	mu      sync.Mutex
	samples []counterSample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, traceCap)}
}

// now is nanoseconds since the tracer started (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// newID reserves a span id so children can name their parent before the
// parent span has ended.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// put records a finished span under a reserved id.
func (t *tracer) put(id, parent, op uint64, name string, pe int, start, end int64) {
	if t == nil {
		return
	}
	slot := id % traceCap
	l := &t.locks[slot%uint64(len(t.locks))]
	l.Lock()
	if t.spans[slot].id < id { // a span a lap newer may already sit here
		t.spans[slot] = span{id: id, parent: parent, op: op, name: name, pe: pe, start: start, end: end}
	}
	l.Unlock()
}

// rec records a finished span and returns its id.
func (t *tracer) rec(parent, op uint64, name string, pe int, start, end int64) uint64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.put(id, parent, op, name, pe, start, end)
	return id
}

// sample stores a counter snapshot taken at a span boundary.
func (t *tracer) sample(pe int, label string, c counters) {
	if t == nil {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.samples = append(t.samples, counterSample{pe: pe, label: label, at: at, c: c})
	t.mu.Unlock()
}

// write stores the kept spans and counter samples as one JSON document.
func (t *tracer) write(path string, st stamp) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	total := t.next.Load()
	kept := min(total, traceCap)
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\"stamp\":%s,\n\"spans_recorded\":%d,\"spans_dropped\":%d,\n\"spans\":[\n", stampJSON, total, total-kept)
	first := true
	for id := total - kept + 1; id <= total; id++ {
		s := t.spans[id%traceCap]
		if s.id != id {
			continue // reserved but never finished
		}
		if !first {
			w.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"pe":%d,"start_ns":%d,"end_ns":%d}`,
			s.id, s.parent, s.op, s.name, s.pe, s.start, s.end)
	}
	w.WriteString("\n],\n\"counters\":[\n")
	for i, cs := range t.samples {
		if i > 0 {
			w.WriteString(",\n")
		}
		vals, err := json.Marshal(cs.c.named())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, `{"pe":%d,"label":%q,"at_ns":%d,"values":%s}`, cs.pe, cs.label, cs.at, vals)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
