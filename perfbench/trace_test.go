package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netblock"
	"repro/internal/store"
)

// optional lists every optional interface the store or a block server
// type-asserts on a backend. A wrapper must implement exactly the ones
// the backend it wraps implements, or tracing changes the program.
var optional = []struct {
	name string
	is   func(any) bool
}{
	{"OwnedWriter", func(v any) bool { _, ok := v.(store.OwnedWriter); return ok }},
	{"WireStats", func(v any) bool { _, ok := v.(store.WireStats); return ok }},
	{"HealthChecker", func(v any) bool { _, ok := v.(store.HealthChecker); return ok }},
	{"HealthStats", func(v any) bool { _, ok := v.(store.HealthStats); return ok }},
	{"NodeAdder", func(v any) bool { _, ok := v.(store.NodeAdder); return ok }},
	{"BlockStreamer", func(v any) bool { _, ok := v.(store.BlockStreamer); return ok }},
	{"Nodes", func(v any) bool { _, ok := v.(interface{ Nodes() int }); return ok }},
}

func sameInterfaces(t *testing.T, inner, wrapped any) {
	t.Helper()
	for _, o := range optional {
		if a, b := o.is(inner), o.is(wrapped); a != b {
			t.Errorf("%s: inner %T implements it = %v, wrapper %T = %v", o.name, inner, a, wrapped, b)
		}
	}
}

func TestTracedClientForwards(t *testing.T) {
	srv, addr, err := netblock.StartLocal(store.NewMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nb, err := netblock.Dial([]string{addr}, netblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	tr := newTracer()
	tr.on.Store(true)
	w := tracedClient{c: nb, t: tr}
	sameInterfaces(t, nb, w)

	frame := store.FrameBlock([]byte("payload"))
	if err := w.WriteOwned(0, "k", append([]byte(nil), frame...)); err != nil {
		t.Fatal(err)
	}
	got, err := w.Read(0, "k")
	if err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("Read = %q, %v; want %q", got, err, frame)
	}
	var buf bytes.Buffer
	if n, err := w.ReadBlockTo(0, "k", &buf); err != nil || n != int64(len(frame)) || !bytes.Equal(buf.Bytes(), frame) {
		t.Fatalf("ReadBlockTo = %d, %v", n, err)
	}
	if _, err := w.WriteBlockFrom(0, "k2", bytes.NewReader(frame)); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckNode(0); err != nil {
		t.Fatalf("CheckNode: %v", err)
	}
	ws, _ := w.WireTraffic()
	ns, _ := nb.WireTraffic()
	if len(ws) != 1 || ws[0] == 0 || ws[0] != ns[0] {
		t.Fatalf("WireTraffic = %v, inner %v", ws, ns)
	}
	if len(w.NodeHealth()) != 1 {
		t.Fatalf("NodeHealth has %d nodes, want 1", len(w.NodeHealth()))
	}
	id, err := w.AddNode(addr)
	if err != nil || id != 1 || w.Nodes() != 2 || nb.Nodes() != 2 {
		t.Fatalf("AddNode = %d, %v; Nodes = %d, inner %d", id, err, w.Nodes(), nb.Nodes())
	}
	kinds := map[uint8]int{}
	for _, s := range tr.take() {
		if s.layer != layerNetblock {
			t.Fatalf("span in layer %d, want netblock", s.layer)
		}
		kinds[s.kind]++
	}
	if kinds[kindWrite] != 2 || kinds[kindRead] != 2 {
		t.Fatalf("span kinds %v, want 2 writes and 2 reads", kinds)
	}
}

func TestTracedDiskAndCodecForward(t *testing.T) {
	d, err := store.NewDirBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	sameInterfaces(t, d, tracedDisk{d: d, t: tr})

	codec := store.NewXorbasCodec()
	wrapped := tracedCodec{Codec: codec, t: tr}
	data := make([][]byte, codec.K())
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i + 1)}, 64)
	}
	want, err := codec.Encode(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Encode(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("block %d differs through the wrapper", i)
		}
	}
	if wrapped.Name() != codec.Name() || wrapped.NStored() != codec.NStored() {
		t.Fatalf("wrapper reports %s/%d, inner %s/%d", wrapped.Name(), wrapped.NStored(), codec.Name(), codec.NStored())
	}
}

func TestSplitByLayer(t *testing.T) {
	ms := func(d int64) int64 { return d * int64(time.Millisecond) }
	spans := []span{
		{start: ms(0), end: ms(10), layer: layerHTTP},
		{start: ms(1), end: ms(9), layer: layerGateway},
		{start: ms(2), end: ms(3), layer: layerCodec},
		// Two parallel netblock calls overlapping the disk below them.
		{start: ms(4), end: ms(7), layer: layerNetblock},
		{start: ms(5), end: ms(8), layer: layerNetblock},
		{start: ms(5), end: ms(6), layer: layerDisk},
		{start: ms(10), end: ms(11), layer: layerCheck},
		{start: ms(20), end: ms(30), layer: layerRepair},
	}
	got := splitByLayer(spans, 0, ms(12))
	want := [nLayers]time.Duration{
		layerHTTP:     2 * time.Millisecond,
		layerGateway:  3 * time.Millisecond,
		layerCodec:    1 * time.Millisecond,
		layerNetblock: 3 * time.Millisecond,
		layerDisk:     1 * time.Millisecond,
	}
	if got.self != want || got.checks != time.Millisecond || got.uncovers != time.Millisecond {
		t.Fatalf("self %v checks %v uncovered %v; want %v, 1ms and 1ms", got.self, got.checks, got.uncovers, want)
	}
	if c := got.covered(); c < 0.90 || c > 0.91 {
		t.Fatalf("covered = %v, want 10/11", c)
	}
}
