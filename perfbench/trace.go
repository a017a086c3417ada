package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/xdm"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent indexes the span that caused this one (-1 when the cause is
// only known through Op, as for handler spans on shard goroutines).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Peer   string `json:"peer,omitempty"`
	// Kind is the envelope module class of a handler span (user,
	// system, wsat) or the op kind of a client span (read, write).
	Kind  string `json:"kind,omitempty"`
	In    int64  `json:"in_bytes,omitempty"`
	Out   int64  `json:"out_bytes,omitempty"`
	First int64  `json:"first_byte_ns,omitempty"`
	// Allocs is the heap allocation count inside the span (q7 only,
	// where one client makes it attributable).
	Allocs int64 `json:"allocs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// captureCap bounds the captured request/response pairs that the soap.*
// per-byte costs are timed on.
const captureCap = 32

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	epoch time.Time
	// cur is the op in flight for single-client workloads: handler spans
	// whose envelope carries no trace ID are attributed to it.
	cur atomic.Int64

	// capturing turns message capture on: only after the traced window,
	// so that holding the sample does not grow the heap (and space out
	// the GC) while the window is timed.
	capturing atomic.Bool

	mu    sync.Mutex
	spans []span
	reqs  [][]byte
	resps [][]byte
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// now0 is the tracer clock, or 0 untraced.
func (t *tracer) now0() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// reset drops spans and captures recorded during set-up.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.reqs, t.resps = nil, nil, nil
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span and returns its index; a nil tracer returns -1.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Start: t.now(), Parent: parent, Op: op})
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// beginAllocs is begin that also counts allocations until endAllocs.
func (t *tracer) beginAllocs(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	a := mallocs()
	i := t.begin(name, parent, op)
	t.mu.Lock()
	t.spans[i].Allocs = a
	t.mu.Unlock()
	return i
}

func (t *tracer) endAllocs(i int) {
	if t == nil || i < 0 {
		return
	}
	t.end(i)
	a := mallocs()
	t.mu.Lock()
	t.spans[i].Allocs = a - t.spans[i].Allocs
	t.mu.Unlock()
}

// sampleSlot reserves a capture slot for the next handled message, or
// returns -1 when capture is off or full.
func (t *tracer) sampleSlot() int {
	if !t.capturing.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.reqs) >= captureCap {
		return -1
	}
	t.reqs = append(t.reqs, nil)
	t.resps = append(t.resps, nil)
	return len(t.reqs) - 1
}

func (t *tracer) store(slot int, req, resp []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs[slot] = append([]byte(nil), req...)
	t.resps[slot] = resp
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one JSON line.
func writeSpans(spans []span, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}

// envelopeAttr returns the value of attribute name (e.g. xrpc:module) on
// the request element; it looks only at the envelope head.
func envelopeAttr(body []byte, name string) string {
	head := body
	if len(head) > 2048 {
		head = head[:2048]
	}
	key := []byte(name + `="`)
	i := bytes.Index(head, key)
	if i < 0 {
		return ""
	}
	rest := head[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// moduleKind classes a request by its envelope module.
func moduleKind(body []byte) string {
	switch envelopeAttr(body, "xrpc:module") {
	case client.SystemModule:
		return "system"
	case "urn:wsat":
		return "wsat"
	default:
		return "user"
	}
}

const traceIDPrefix = "pb"

// traceID is fixed-width, so that envelope sizes (and the wire-byte
// counts) do not depend on how many ops a process has run.
func traceID(op int64) string { return fmt.Sprintf("%s%016d", traceIDPrefix, op) }

// opOf recovers the op of a request from its envelope trace ID, or the
// op in flight when the envelope carries none.
func (t *tracer) opOf(body []byte) int64 {
	id := envelopeAttr(body, "xrpc:traceID")
	if len(id) > len(traceIDPrefix) && id[:len(traceIDPrefix)] == traceIDPrefix {
		if n, err := strconv.ParseInt(id[len(traceIDPrefix):], 10, 64); err == nil {
			return n
		}
	}
	return t.cur.Load()
}

// handlerShim is the netsim.Handler registered for a traced peer in
// place of the peer itself: it records a server.handle span per message,
// ending a streamed one when its body is closed, and captures messages
// for the soap.* costs while capture is on.
type handlerShim struct {
	tr   *tracer
	peer string
	h    netsim.Handler
}

// traceHandlers replaces every listed peer on net with a handlerShim.
func traceHandlers(tr *tracer, net *netsim.Network, uris []string) {
	for _, uri := range uris {
		if h, ok := net.Peer(uri); ok {
			net.Register(uri, &handlerShim{tr: tr, peer: uri, h: h})
		}
	}
}

func (s *handlerShim) HandleXRPC(path string, body []byte) ([]byte, error) {
	sp := s.open(body)
	resp, err := s.h.HandleXRPC(path, body)
	s.finish(sp, int64(len(resp)))
	if slot := s.tr.sampleSlot(); slot >= 0 && err == nil {
		s.tr.store(slot, body, append([]byte(nil), resp...))
	}
	return resp, err
}

func (s *handlerShim) HandleXRPCStream(path string, body []byte) (io.ReadCloser, error) {
	sh, ok := s.h.(netsim.StreamHandler)
	if !ok {
		resp, err := s.HandleXRPC(path, body)
		if err != nil {
			return nil, err
		}
		return io.NopCloser(bytes.NewReader(resp)), nil
	}
	sp := s.open(body)
	rc, err := sh.HandleXRPCStream(path, body)
	if err != nil {
		return nil, err
	}
	tb := &tracedBody{rc: rc, shim: s, sp: sp, slot: s.tr.sampleSlot()}
	if tb.slot >= 0 {
		tb.req = append([]byte(nil), body...)
		tb.capture = &bytes.Buffer{}
	}
	return tb, nil
}

// open starts a handler span. Everything it needs from the request is
// read here: the sender may reuse the body's buffer once it holds the
// response.
func (s *handlerShim) open(body []byte) span {
	sp := span{Name: "server.handle", Parent: -1, Op: s.tr.opOf(body), Peer: s.peer,
		Kind: moduleKind(body), In: int64(len(body))}
	sp.Start = s.tr.now()
	return sp
}

func (s *handlerShim) finish(sp span, out int64) {
	sp.End, sp.Out = s.tr.now(), out
	s.tr.add(sp)
}

// tracedBody is a streamed response whose handler span ends at Close.
type tracedBody struct {
	rc      io.ReadCloser
	shim    *handlerShim
	sp      span
	n       int64
	slot    int
	req     []byte // a copy of the request, when captured
	capture *bytes.Buffer
	closed  bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if b.capture != nil {
		b.capture.Write(p[:n])
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.rc.Close()
	if !b.closed {
		b.closed = true
		b.shim.finish(b.sp, b.n)
		if b.capture != nil {
			b.shim.tr.store(b.slot, b.req, b.capture.Bytes())
		}
	}
	return err
}

// bulkShim is the pathfinder.BulkCaller handed to a traced evaluation:
// one client.bulk_call span per Bulk RPC dispatch.
type bulkShim struct {
	tr     *tracer
	parent int
	op     int64
	b      pathfinder.BulkCaller
}

func (s *bulkShim) CallBulk(dest string, br *client.BulkRequest) ([]xdm.Sequence, error) {
	i := s.tr.beginAllocs("client.bulk_call", s.parent, s.op)
	defer s.tr.endAllocs(i)
	return s.b.CallBulk(dest, br)
}

func (s *bulkShim) CallOneAtATime(dest string, br *client.BulkRequest) ([]xdm.Sequence, error) {
	i := s.tr.beginAllocs("client.bulk_call", s.parent, s.op)
	defer s.tr.endAllocs(i)
	return s.b.CallOneAtATime(dest, br)
}

func (s *bulkShim) CallParallel(parts []*client.BulkByDest, total int) ([]xdm.Sequence, error) {
	i := s.tr.beginAllocs("client.bulk_call", s.parent, s.op)
	defer s.tr.endAllocs(i)
	return s.b.CallParallel(parts, total)
}

// docShim is the DocResolver handed to a traced evaluation: one
// client.doc_fetch span per fn:doc resolution.
type docShim struct {
	tr     *tracer
	parent int
	op     int64
	d      interp.DocResolver
}

func (s *docShim) Doc(uri string) (*xdm.Node, error) {
	i := s.tr.beginAllocs("client.doc_fetch", s.parent, s.op)
	defer s.tr.endAllocs(i)
	return s.d.Doc(uri)
}
