package main

import (
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netblock"
	"repro/internal/store"
)

// Layers, ordered from the outside in. When spans of several layers are
// open at one instant, the instant belongs to the innermost one: that is
// how self time is split without double counting parallel or nested
// calls.
const (
	layerHTTP     = iota // one client request, send to last body byte
	layerGateway         // the gateway's http.Handler (gateway + store)
	layerCodec           // store.Codec calls
	layerNetblock        // netblock.Client calls
	layerDisk            // DirBackend calls inside the block servers
	nLayers
)

// Spans that are not a layer of the program.
const (
	layerRepair = nLayers + iota // drain and scrub-presence windows
	layerCheck                   // the benchmark client checking a body
	nSpanLayers
)

// Span kinds, per layer.
const (
	kindRead = iota
	kindWrite
	kindDelete
	kindOther
	kindEncode
	kindReconstruct
	kindPut
	kindGet
	kindDrain
	kindScrub
)

// span is one timed call into a layer. n is a size that goes with the
// call: payload bytes for reads and writes, data bytes for an encode,
// positions for a reconstruction.
type span struct {
	start, end int64 // ns since the tracer's base
	layer      uint8
	kind       uint8
	n          int64
}

// tracer keeps spans in memory while enabled. Disabled, each wrapped
// call costs two clock reads and an atomic load. A nil tracer records
// nothing.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) record(layer, kind uint8, start int64, n int64) {
	if t == nil || !t.on.Load() {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, layer: layer, kind: kind, n: n})
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a new list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// handler times the gateway's http.Handler.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(layerGateway, kindOther, start, 0)
	})
}

// tracedCodec times every store.Codec call that does arithmetic.
type tracedCodec struct {
	store.Codec
	t *tracer
}

func (c tracedCodec) Encode(data [][]byte, workers int) ([][]byte, error) {
	start := c.t.now()
	out, err := c.Codec.Encode(data, workers)
	c.t.record(layerCodec, kindEncode, start, blocksLen(data))
	return out, err
}

func (c tracedCodec) EncodeInto(data, parity [][]byte, workers int) error {
	start := c.t.now()
	err := c.Codec.EncodeInto(data, parity, workers)
	c.t.record(layerCodec, kindEncode, start, blocksLen(data))
	return err
}

func (c tracedCodec) PlanReads(i int, avail []bool) ([]int, bool, error) {
	start := c.t.now()
	reads, light, err := c.Codec.PlanReads(i, avail)
	c.t.record(layerCodec, kindOther, start, 0)
	return reads, light, err
}

func (c tracedCodec) ReconstructBlock(stripe [][]byte, i int) ([]byte, bool, error) {
	start := c.t.now()
	p, light, err := c.Codec.ReconstructBlock(stripe, i)
	c.t.record(layerCodec, kindReconstruct, start, 1)
	return p, light, err
}

func (c tracedCodec) ReconstructMany(stripe [][]byte, positions []int) ([][]byte, []bool, error) {
	start := c.t.now()
	p, light, err := c.Codec.ReconstructMany(stripe, positions)
	c.t.record(layerCodec, kindReconstruct, start, int64(len(positions)))
	return p, light, err
}

func (c tracedCodec) ReconstructManyInto(stripe [][]byte, positions []int, dst [][]byte) ([]bool, []bool, error) {
	start := c.t.now()
	filled, light, err := c.Codec.ReconstructManyInto(stripe, positions, dst)
	c.t.record(layerCodec, kindReconstruct, start, int64(len(positions)))
	return filled, light, err
}

func (c tracedCodec) Verify(stripe [][]byte) (bool, error) {
	start := c.t.now()
	ok, err := c.Codec.Verify(stripe)
	c.t.record(layerCodec, kindOther, start, 0)
	return ok, err
}

func (c tracedCodec) LocateCorruption(stripe [][]byte) ([]int, error) {
	start := c.t.now()
	bad, err := c.Codec.LocateCorruption(stripe)
	c.t.record(layerCodec, kindOther, start, 0)
	return bad, err
}

func blocksLen(bs [][]byte) int64 {
	var n int64
	for _, b := range bs {
		n += int64(len(b))
	}
	return n
}

// tracedClient times the netblock.Client the store writes through. It
// forwards every optional interface the store type-asserts on its
// backend, so wrapping never changes the store's behaviour: the put path
// keeps its owned writes, Metrics keeps its wire and breaker counters,
// and membership keeps its node registration.
type tracedClient struct {
	c *netblock.Client
	t *tracer
}

var (
	_ store.Backend       = tracedClient{}
	_ store.OwnedWriter   = tracedClient{}
	_ store.WireStats     = tracedClient{}
	_ store.HealthChecker = tracedClient{}
	_ store.HealthStats   = tracedClient{}
	_ store.NodeAdder     = tracedClient{}
	_ store.BlockStreamer = tracedClient{}
)

func (b tracedClient) Write(node int, key string, data []byte) error {
	start := b.t.now()
	err := b.c.Write(node, key, data)
	b.t.record(layerNetblock, kindWrite, start, int64(len(data)))
	return err
}

func (b tracedClient) WriteOwned(node int, key string, data []byte) error {
	start := b.t.now()
	err := b.c.WriteOwned(node, key, data)
	b.t.record(layerNetblock, kindWrite, start, int64(len(data)))
	return err
}

func (b tracedClient) Read(node int, key string) ([]byte, error) {
	start := b.t.now()
	data, err := b.c.Read(node, key)
	b.t.record(layerNetblock, kindRead, start, int64(len(data)))
	return data, err
}

func (b tracedClient) Delete(node int, key string) error {
	start := b.t.now()
	err := b.c.Delete(node, key)
	b.t.record(layerNetblock, kindDelete, start, 0)
	return err
}

func (b tracedClient) ReadBlockTo(node int, key string, w io.Writer) (int64, error) {
	start := b.t.now()
	n, err := b.c.ReadBlockTo(node, key, w)
	b.t.record(layerNetblock, kindRead, start, n)
	return n, err
}

func (b tracedClient) WriteBlockFrom(node int, key string, r io.Reader) (int64, error) {
	start := b.t.now()
	n, err := b.c.WriteBlockFrom(node, key, r)
	b.t.record(layerNetblock, kindWrite, start, n)
	return n, err
}

func (b tracedClient) WireTraffic() (sent, recv []int64) { return b.c.WireTraffic() }
func (b tracedClient) CheckNode(node int) error          { return b.c.CheckNode(node) }
func (b tracedClient) NodeHealth() []store.NodeHealthInfo {
	return b.c.NodeHealth()
}
func (b tracedClient) AddNode(addr string) (int, error) { return b.c.AddNode(addr) }
func (b tracedClient) Nodes() int                       { return b.c.Nodes() }

// tracedDisk times one block server's DirBackend. DirBackend has no
// optional interfaces, and neither has this wrapper, so the server takes
// the same copying write path it takes unwrapped.
type tracedDisk struct {
	d *store.DirBackend
	t *tracer
}

func (b tracedDisk) Write(node int, key string, data []byte) error {
	start := b.t.now()
	err := b.d.Write(node, key, data)
	b.t.record(layerDisk, kindWrite, start, int64(len(data)))
	return err
}

func (b tracedDisk) Read(node int, key string) ([]byte, error) {
	start := b.t.now()
	data, err := b.d.Read(node, key)
	b.t.record(layerDisk, kindRead, start, int64(len(data)))
	return data, err
}

func (b tracedDisk) Delete(node int, key string) error {
	start := b.t.now()
	err := b.d.Delete(node, key)
	b.t.record(layerDisk, kindDelete, start, 0)
	return err
}

// layerSplit is the traced window cut into per-layer self time: each
// instant goes to the innermost layer with an open span. Of the instants
// with no layer open, those where the client checks a body are checks;
// the rest no layer accounts for.
type layerSplit struct {
	self     [nLayers]time.Duration
	checks   time.Duration
	uncovers time.Duration
}

// splitByLayer sweeps the spans of layers http..disk across [from, to).
func splitByLayer(spans []span, from, to int64) layerSplit {
	type edge struct {
		at    int64
		layer uint8
		delta int8
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		if s.layer == layerRepair {
			continue
		}
		lo, hi := max(s.start, from), min(s.end, to)
		if lo >= hi {
			continue
		}
		edges = append(edges, edge{lo, s.layer, 1}, edge{hi, s.layer, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var open [nSpanLayers]int
	var out layerSplit
	prev := from
	for _, e := range edges {
		if e.at > prev {
			out.add(&open, time.Duration(e.at-prev))
			prev = e.at
		}
		open[e.layer] += int(e.delta)
	}
	if to > prev {
		out.add(&open, time.Duration(to-prev))
	}
	return out
}

func (ls *layerSplit) add(open *[nSpanLayers]int, d time.Duration) {
	for l := nLayers - 1; l >= 0; l-- {
		if open[l] > 0 {
			ls.self[l] += d
			return
		}
	}
	if open[layerCheck] > 0 {
		ls.checks += d
		return
	}
	ls.uncovers += d
}

// covered is the share of the window, less the client's body checks,
// that some layer accounts for.
func (ls layerSplit) covered() float64 {
	var sum time.Duration
	for _, d := range ls.self {
		sum += d
	}
	if sum+ls.uncovers == 0 {
		return 0
	}
	return float64(sum) / float64(sum+ls.uncovers)
}
