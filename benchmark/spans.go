package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The rungs of the ladder: the same op stream is entered at each, so
// the difference between two rungs is what the layers between them
// cost.
const (
	rungNFS uint8 = iota
	rungFsys
	rungVolume
	rungDevice
)

var rungNames = []string{"nfs", "fsys", "volume", "device"}

// span is one call into a layer, recorded by the harness around the
// call: the benchmark's files wrap the layers, the layers themselves
// are not instrumented.
type span struct {
	rung   uint8
	worker uint8
	parent int32
	start  int64 // ns since the log's epoch
	dur    int64
}

// spanLog keeps every span of a traced run in memory until the run
// ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// last is the most recently begun span: a device request seen
	// while an op is in flight names it as its cause.
	last atomic.Int32
}

func newSpanLog(capacity int) *spanLog {
	s := &spanLog{epoch: time.Now(), spans: make([]span, 0, capacity)}
	s.last.Store(-1)
	return s
}

// begin opens a span caused by parent (-1: a client op) and returns
// its id.
func (s *spanLog) begin(parent int32) int32 {
	s.mu.Lock()
	id := int32(len(s.spans))
	s.spans = append(s.spans, span{parent: parent})
	s.mu.Unlock()
	s.last.Store(id)
	return id
}

func (s *spanLog) end(id int32, rung uint8, worker int, t0 time.Time, d time.Duration) {
	s.mu.Lock()
	sp := &s.spans[id]
	sp.rung, sp.worker = rung, uint8(worker)
	sp.start, sp.dur = int64(t0.Sub(s.epoch)), int64(d)
	s.mu.Unlock()
}

// writeFile writes the spans as one JSON document, a row per span.
func (s *spanLog) writeFile(path, workload string, e env) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	head, err := json.Marshal(map[string]any{"workload": workload, "env": e, "rungs": rungNames,
		"columns": []string{"id", "rung", "parent", "worker", "start_ns", "dur_ns"}})
	if err != nil {
		f.Close()
		return err
	}
	// Splice the rows into the header object.
	w.Write(head[:len(head)-1])
	w.WriteString(",\"spans\":[")
	for id, sp := range s.spans {
		if id > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d,%d]", id, sp.rung, sp.parent, sp.worker, sp.start, sp.dur)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
