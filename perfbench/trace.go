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

	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// spansPerLayer bounds the spans of one name a traced run keeps for its
// trace file, so every layer appears in it. Layer totals keep counting
// past the bound; only the file stops growing.
const spansPerLayer = 2048

// span is one timed call into a layer, as written to the trace file.
// Times are nanoseconds since the tracer's epoch; Event is the benchmark's
// event index, -1 when the call serves no single event.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Event  int64  `json:"event"`
}

// open is a span in progress. childNS collects the time of the child spans
// ended inside it, which end subtracts to get the span's self time.
type open struct {
	span
	parent  *open
	childNS int64
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count   int64
	totalNS int64
	selfNS  int64
}

func (s layerStat) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.totalNS) / float64(s.count) / 1e3
}

// tracer records spans around the benchmark's calls into each layer. It is
// safe for concurrent use; parent links are only used by single-goroutine
// callers, which own the parent they pass.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
	layers  map[string]*layerStat
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: map[string]*layerStat{}}
}

func (t *tracer) begin(name string, event int64, parent *open) *open {
	o := &open{parent: parent}
	o.Name, o.Event = name, event
	if parent != nil {
		o.Parent = parent.ID
	}
	t.mu.Lock()
	t.nextID++
	o.ID = t.nextID
	t.mu.Unlock()
	o.Start = int64(time.Since(t.epoch))
	return o
}

func (t *tracer) end(o *open) {
	o.End = int64(time.Since(t.epoch))
	dur := o.End - o.Start
	if o.parent != nil {
		o.parent.childNS += dur
	}
	t.mu.Lock()
	st := t.layers[o.Name]
	if st == nil {
		st = &layerStat{}
		t.layers[o.Name] = st
	}
	st.count++
	st.totalNS += dur
	st.selfNS += dur - o.childNS
	if st.count <= spansPerLayer {
		t.spans = append(t.spans, o.span)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// takeLayers returns the layer aggregates so far and resets them, so each
// phase of a run reads only its own calls.
func (t *tracer) takeLayers() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	layers := make(map[string]layerStat, len(t.layers))
	for n, st := range t.layers {
		layers[n] = *st
	}
	t.layers = map[string]*layerStat{}
	return layers
}

// write stores the run's environment and every kept span as JSON lines.
func (t *tracer) write(path string, env any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"env": env, "spans": len(t.spans), "spans_dropped": t.dropped})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// isEventFrame reports whether a wire frame carries an event (as opposed
// to control traffic: feedback, plans, acks, heartbeats, handshakes).
func isEventFrame(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	switch wire.MsgType(p[0]) {
	case wire.MsgRaw, wire.MsgContinuation, wire.MsgBatch, wire.MsgSeqEvent:
		return true
	}
	return false
}

// timedTransport wraps a transport so that publisher-side event writes
// become "transport.write" spans and subscriber-side event reads become
// "transport.read_wait" spans (the time the reader waited for the frame).
// Control frames are counted.
type timedTransport struct {
	inner transport.Transport
	tr    *tracer
	// controlFrames counts control frames written in either direction.
	controlFrames atomic.Int64
}

func (t *timedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &timedListener{Listener: l, t: t}, nil
}

func (t *timedTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, t: t}, nil
}

type timedListener struct {
	transport.Listener
	t *timedTransport
}

func (l *timedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, t: l.t, publisher: true}, nil
}

// timedConn is one wrapped connection; publisher marks the accepted
// (publisher) end.
type timedConn struct {
	transport.Conn
	t         *timedTransport
	publisher bool
}

func (c *timedConn) WriteFrame(p []byte) error {
	if !isEventFrame(p) {
		c.t.controlFrames.Add(1)
		return c.Conn.WriteFrame(p)
	}
	if !c.publisher {
		return c.Conn.WriteFrame(p)
	}
	o := c.t.tr.begin("transport.write", -1, nil)
	err := c.Conn.WriteFrame(p)
	c.t.tr.end(o)
	return err
}

func (c *timedConn) ReadFrame() ([]byte, error) {
	if c.publisher {
		return c.Conn.ReadFrame()
	}
	o := c.t.tr.begin("transport.read_wait", -1, nil)
	p, err := c.Conn.ReadFrame()
	if err == nil && isEventFrame(p) {
		c.t.tr.end(o)
	}
	return p, err
}
