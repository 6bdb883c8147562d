package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// TestGetRangeCorrectness slides windows across an object spanning
// several stripes — block-aligned, block-straddling, stripe-straddling,
// empty, and end-clamped — and checks each against the reference slice.
func TestGetRangeCorrectness(t *testing.T) {
	const bl = 128
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	stripe := bl * k
	rng := rand.New(rand.NewSource(42))
	want := randBytes(rng, 2*stripe+700) // two full stripes plus a ragged third
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	size := int64(len(want))

	cases := []struct{ off, length int64 }{
		{0, size},                      // whole object
		{0, 1},                         // first byte
		{size - 1, 1},                  // last byte
		{0, 0},                         // empty at start
		{size, 0},                      // empty at end
		{int64(bl), int64(bl)},         // exactly block 1
		{int64(bl) - 3, 7},             // straddles blocks 0 and 1
		{int64(stripe) - 5, 11},        // straddles stripes 0 and 1
		{int64(stripe), int64(stripe)}, // exactly stripe 1
		{int64(2*stripe) + 1, 698},     // inside the ragged tail
		{size - 700, 700},              // suffix
		{37, int64(stripe) + 91},       // misaligned, > one stripe
		{size - 10, 1 << 40},           // length clamps to the end
		{0, -1},                        // negative length = to the end
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if _, err := s.GetRange("obj", c.off, c.length, &buf); err != nil {
			t.Fatalf("GetRange(%d, %d): %v", c.off, c.length, err)
		}
		end := c.off + c.length
		if c.length < 0 || end > size {
			end = size
		}
		if !bytes.Equal(buf.Bytes(), want[c.off:end]) {
			t.Fatalf("GetRange(%d, %d): payload mismatch (%d bytes, want %d)",
				c.off, c.length, buf.Len(), end-c.off)
		}
	}
}

// TestGetRangeReadsOnlyCoveringBlocks is the point of GetRange: a small
// range must not pay for a full-object read. A window inside a single
// block of a multi-stripe object reads exactly one block.
func TestGetRangeReadsOnlyCoveringBlocks(t *testing.T) {
	const bl = 128
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	stripe := bl * k
	rng := rand.New(rand.NewSource(43))
	want := randBytes(rng, 4*stripe)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}

	// Entirely inside data block 3 of stripe 1.
	off := int64(stripe + 3*bl + 10)
	var buf bytes.Buffer
	info, err := s.GetRange("obj", off, 50, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want[off:off+50]) {
		t.Fatal("payload mismatch")
	}
	if info.BlocksRead != 1 {
		t.Fatalf("single-block range read %d blocks, want 1", info.BlocksRead)
	}
	// BytesRead counts on-disk block bytes (payload plus framing), so
	// bound it by one block with headroom — far below the 40-block object.
	if info.BytesRead > int64(2*bl) {
		t.Fatalf("single-block range read %d bytes, want about one %d-byte block", info.BytesRead, bl)
	}

	// A range over blocks 2..5 of one stripe reads exactly those four.
	off = int64(2 * bl)
	buf.Reset()
	info, err = s.GetRange("obj", off, int64(4*bl), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want[off:off+int64(4*bl)]) {
		t.Fatal("payload mismatch")
	}
	if info.BlocksRead != 4 {
		t.Fatalf("four-block range read %d blocks, want 4", info.BlocksRead)
	}

	// Never worse than the covering-block bound, even across stripes.
	off = int64(stripe - 1)
	length := int64(stripe + 2)
	buf.Reset()
	info, err = s.GetRange("obj", off, length, &buf)
	if err != nil {
		t.Fatal(err)
	}
	covering := int64(0)
	for st := 0; st < 4; st++ {
		base, end := int64(st*stripe), int64((st+1)*stripe)
		lo, hi := max64(off, base), min64(off+length, end)
		if lo < hi {
			covering += (hi-1)/int64(bl) - lo/int64(bl) + 1
		}
	}
	if int64(info.BlocksRead) > covering {
		t.Fatalf("range read %d blocks, covering bound is %d", info.BlocksRead, covering)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestGetRangeDegraded: a ranged read through dead nodes still returns
// the right bytes (reconstructing within the covering window).
func TestGetRangeDegraded(t *testing.T) {
	const bl = 128
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	stripe := bl * k
	rng := rand.New(rand.NewSource(44))
	want := randBytes(rng, 3*stripe+99)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	s.KillNode(2)
	s.KillNode(7)
	for _, c := range []struct{ off, length int64 }{
		{0, int64(len(want))},
		{int64(stripe + 5), int64(2 * bl)},
		{int64(len(want)) - 50, 50},
	} {
		var buf bytes.Buffer
		info, err := s.GetRange("obj", c.off, c.length, &buf)
		if err != nil {
			t.Fatalf("degraded GetRange(%d, %d): %v", c.off, c.length, err)
		}
		if !bytes.Equal(buf.Bytes(), want[c.off:c.off+c.length]) {
			t.Fatalf("degraded GetRange(%d, %d): payload mismatch", c.off, c.length)
		}
		_ = info
	}
}

// TestGetRangeErrors: bad offsets are ErrBadRange (and ErrNotFound for
// missing objects), all matchable with errors.Is.
func TestGetRangeErrors(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	defer s.Close()
	if err := s.Put("obj", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.GetRange("obj", -1, 4, &buf); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative offset: got %v, want ErrBadRange", err)
	}
	if _, err := s.GetRange("obj", 12, 1, &buf); !errors.Is(err, ErrBadRange) {
		t.Fatalf("offset past end: got %v, want ErrBadRange", err)
	}
	if _, err := s.GetRange("obj", 11, 0, &buf); err != nil {
		t.Fatalf("empty range at exact end: %v", err)
	}
	if _, err := s.GetRange("missing", 0, 4, &buf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: got %v, want ErrNotFound", err)
	}
	if _, err := s.GetRange("missing", 0, 4, &buf); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("missing object: got %v, want ErrObjectNotFound", err)
	}
}

// TestGetRangeZeroLengthObject: ranges against an empty object.
func TestGetRangeZeroLengthObject(t *testing.T) {
	s := newTestStore(t, Config{BlockSize: 128})
	defer s.Close()
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.GetRange("empty", 0, 10, &buf); err != nil {
		t.Fatalf("range on empty object: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty object returned %d bytes", buf.Len())
	}
	if _, err := s.GetRange("empty", 1, 1, &buf); !errors.Is(err, ErrBadRange) {
		t.Fatalf("offset past empty object: got %v, want ErrBadRange", err)
	}
}

// TestGetRangeMatchesGet cross-checks the three read entry points —
// Get, GetWriter and GetRange(0, -1) — for a spread of object sizes,
// including sub-block, exactly-aligned and tiny tails whose final stripe
// has padding-only data blocks, healthy and with one node dead: the
// bytes and the ReadInfo must be identical. Healthy, BlocksRead is
// pinned to the covering blocks — a short final stripe's padding-only
// blocks are never read.
func TestGetRangeMatchesGet(t *testing.T) {
	const bl = 64
	s := newTestStore(t, Config{BlockSize: bl})
	defer s.Close()
	k := s.Codec().K()
	rng := rand.New(rand.NewSource(45))
	// coveringBlocks is the data blocks holding bytes of an n-byte
	// object: k per full stripe, and ⌈t/⌈t/k⌉⌉ for a t-byte tail.
	coveringBlocks := func(n int) int64 {
		blocks := int64(n / (bl * k) * k)
		if t := n % (bl * k); t > 0 {
			tbl := (t + k - 1) / k
			blocks += int64((t + tbl - 1) / tbl)
		}
		return blocks
	}
	// One full stripe plus an 11-byte tail: with the default k = 10 the
	// tail sits in 2-byte blocks, of which 6 hold bytes and 4 are
	// padding, so a full read costs 16 blocks, not 20.
	tinyTail := bl*k + 11
	if coveringBlocks(tinyTail) != 16 {
		t.Fatalf("covering blocks of the tiny-tail object = %d, want 16", coveringBlocks(tinyTail))
	}
	sizes := []int{1, bl - 1, bl, bl + 1, bl * k, bl*k + 1, tinyTail, 3 * bl * k}
	want := make(map[string][]byte)
	for _, n := range sizes {
		name := fmt.Sprintf("obj-%d", n)
		want[name] = randBytes(rng, n)
		if err := s.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(degraded bool) {
		for _, n := range sizes {
			name := fmt.Sprintf("obj-%d", n)
			got, info, err := s.Get(name)
			if err != nil {
				t.Fatalf("Get(%q): %v", name, err)
			}
			var wbuf, rbuf bytes.Buffer
			winfo, err := s.GetWriter(name, &wbuf)
			if err != nil {
				t.Fatalf("GetWriter(%q): %v", name, err)
			}
			rinfo, err := s.GetRange(name, 0, -1, &rbuf)
			if err != nil {
				t.Fatalf("GetRange(%q, 0, -1): %v", name, err)
			}
			if !bytes.Equal(got, want[name]) || !bytes.Equal(wbuf.Bytes(), want[name]) || !bytes.Equal(rbuf.Bytes(), want[name]) {
				t.Fatalf("%q (degraded=%v): payload mismatch", name, degraded)
			}
			if info != winfo || info != rinfo {
				t.Fatalf("%q (degraded=%v): ReadInfo differs: Get %+v, GetWriter %+v, GetRange %+v", name, degraded, info, winfo, rinfo)
			}
			if !degraded && (info.BlocksRead != coveringBlocks(n) || info.Degraded) {
				t.Fatalf("%q: healthy read cost %d blocks (degraded=%v), want the %d covering blocks",
					name, info.BlocksRead, info.Degraded, coveringBlocks(n))
			}
		}
	}
	check(false)
	// Kill the node holding the largest object's first data block, so
	// at least that read rebuilds inline.
	node, _, err := s.BlockLocation(fmt.Sprintf("obj-%d", 3*bl*k), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.KillNode(node)
	check(true)
	if _, info, _ := s.Get(fmt.Sprintf("obj-%d", 3*bl*k)); !info.Degraded || info.LightRepairs == 0 {
		t.Fatalf("read through a dead node: %+v, want a degraded light repair", info)
	}
}

// TestGetRangeEmptyWindowNoBackendReads: the edge windows — explicit
// length 0 anywhere, and off == size (with or without a clamped
// length) — succeed with zero bytes written and zero backend reads.
// Regression: an empty window must never cost a covering-stripe fetch.
func TestGetRangeEmptyWindowNoBackendReads(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	s := newTestStore(t, Config{Backend: cb, BlockSize: 128})
	defer s.Close()
	k := s.Codec().K()
	want := randBytes(rand.New(rand.NewSource(77)), 128*k+40)
	if err := s.Put("obj", want); err != nil {
		t.Fatal(err)
	}
	size := int64(len(want))
	before := cb.reads.Load()
	for _, c := range []struct{ off, length int64 }{
		{0, 0},          // empty at start
		{17, 0},         // empty mid-object
		{size, 0},       // empty at end
		{size, -1},      // off == size, "to the end" clamps to nothing
		{size, 1 << 30}, // off == size, oversized length clamps to nothing
	} {
		var buf bytes.Buffer
		info, err := s.GetRange("obj", c.off, c.length, &buf)
		if err != nil {
			t.Fatalf("GetRange(%d, %d): %v", c.off, c.length, err)
		}
		if buf.Len() != 0 || info.BytesWritten != 0 {
			t.Fatalf("GetRange(%d, %d) wrote %d bytes, want 0", c.off, c.length, buf.Len())
		}
		if info.BlocksRead != 0 || info.BytesRead != 0 {
			t.Fatalf("GetRange(%d, %d) cost %d blocks / %d bytes, want free", c.off, c.length, info.BlocksRead, info.BytesRead)
		}
	}
	if got := cb.reads.Load(); got != before {
		t.Fatalf("empty windows hit the backend: %d -> %d reads", before, got)
	}
	// One past the end stays an error, not an empty success.
	if _, err := s.GetRange("obj", size+1, 0, &bytes.Buffer{}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("GetRange(size+1, 0) = %v, want ErrBadRange", err)
	}
}

// readHookBackend is a countingBackend that runs onRead before every
// read — the probe the retry tests use to move a block under a read in
// flight.
type readHookBackend struct {
	countingBackend
	onRead func(node int, key string)
}

func (b *readHookBackend) Read(node int, key string) ([]byte, error) {
	if b.onRead != nil {
		b.onRead(node, key)
	}
	return b.countingBackend.Read(node, key)
}

// TestReadRetryPolicy pins the one stale-manifest retry loop behind
// Get, GetWriter and GetRange. Each case leaves one stripe readable only
// through data block 0 (every parity deleted), then takes block 0 away.
//   - Genuine loss (block 0 deleted, manifest unchanged): ErrUnrecoverable
//     after exactly one attempt's backend reads, for all three.
//   - Stale snapshot (a repair-style relocation of block 0 commits during
//     the first attempt): Get, and GetWriter failing before its first
//     write, retry on the fresh manifest and return byte-exact.
//   - GetWriter failing after bytes went out returns the error as is.
func TestReadRetryPolicy(t *testing.T) {
	const bl = 64
	mb := NewMemBackend()
	hb := &readHookBackend{countingBackend: countingBackend{Backend: mb}}
	s := newTestStore(t, Config{Backend: hb, BlockSize: bl})
	defer s.Close()
	k, n := s.Codec().K(), s.Codec().NStored()
	rng := rand.New(rand.NewSource(46))
	put := func(name string, size int) []byte {
		data := randBytes(rng, size)
		if err := s.Put(name, data); err != nil {
			t.Fatal(err)
		}
		return data
	}
	// breakStripe deletes every parity of stripe idx and returns where
	// its data block 0 lives.
	breakStripe := func(name string, idx int) (node int, key string) {
		for pos := k; pos < n; pos++ {
			nd, ky, err := s.BlockLocation(name, idx, pos)
			if err != nil {
				t.Fatal(err)
			}
			if err := mb.Delete(nd, ky); err != nil {
				t.Fatal(err)
			}
		}
		node, key, err := s.BlockLocation(name, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		return node, key
	}
	// moveOnRead arms the hook: the first read of key relocates the
	// block to a new key, as a repair write-back would, so the read in
	// flight finds its snapshot stale.
	moveOnRead := func(name string, idx, node int, key string) {
		v, _ := s.db.Get(objKey(name))
		ref := stripeRef{name: name, gen: v.(*objectInfo).Gen, idx: idx}
		var once sync.Once
		hb.onRead = func(_ int, k string) {
			if k != key {
				return
			}
			once.Do(func() {
				raw, err := mb.Read(node, key)
				if err != nil {
					t.Error(err)
					return
				}
				moved := key + ".moved"
				if err := mb.Write(node, moved, raw); err != nil {
					t.Error(err)
				}
				if !s.relocateBlock(ref, 0, node, moved) {
					t.Error("relocateBlock refused")
				}
				if err := mb.Delete(node, key); err != nil {
					t.Error(err)
				}
			})
		}
	}

	// Genuine loss: block 0 deleted, manifest unchanged.
	{
		put("lost", bl*k)
		node, key := breakStripe("lost", 0)
		if err := mb.Delete(node, key); err != nil {
			t.Fatal(err)
		}
		reads := func(read func() error) int64 {
			before := hb.reads.Load()
			if err := read(); !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("err = %v, want ErrUnrecoverable", err)
			}
			return hb.reads.Load() - before
		}
		attempt := func(off, length int64) int64 {
			n := reads(func() error {
				_, _, err := s.streamRangeVersion("lost", off, length, io.Discard)
				return err
			})
			if n == 0 {
				t.Fatal("one attempt read no blocks")
			}
			return n
		}
		full, window := attempt(0, -1), attempt(3, 10)
		for _, c := range []struct {
			name string
			want int64
			read func() error
		}{
			{"Get", full, func() error { _, _, err := s.Get("lost"); return err }},
			{"GetWriter", full, func() error { _, err := s.GetWriter("lost", io.Discard); return err }},
			{"GetRange(3, 10)", window, func() error { _, err := s.GetRange("lost", 3, 10, io.Discard); return err }},
		} {
			if got := reads(c.read); got != c.want {
				t.Fatalf("%s: %d backend reads, want one attempt's %d", c.name, got, c.want)
			}
		}
	}

	// Stale snapshot: block 0 relocated during the first attempt.
	{
		for _, viaWriter := range []bool{false, true} {
			name := fmt.Sprintf("moved-%v", viaWriter)
			want := put(name, bl*k)
			node, key := breakStripe(name, 0)
			moveOnRead(name, 0, node, key)
			var got []byte
			var err error
			if viaWriter {
				var buf bytes.Buffer
				_, err = s.GetWriter(name, &buf)
				got = buf.Bytes()
			} else {
				got, _, err = s.Get(name)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: payload mismatch after retry", name)
			}
			if _, now, _ := s.BlockLocation(name, 0, 0); now != key+".moved" {
				t.Fatalf("%s: block 0 at %q, want it relocated mid-read", name, now)
			}
		}
	}

	// Stale snapshot of stripe 1, found after stripe 0 went out.
	{
		want := put("late", 2*bl*k)
		node, key := breakStripe("late", 1)
		moveOnRead("late", 1, node, key)
		var buf bytes.Buffer
		info, err := s.GetWriter("late", &buf)
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("err = %v, want ErrUnrecoverable", err)
		}
		if !bytes.Equal(buf.Bytes(), want[:bl*k]) || info.BytesWritten != int64(bl*k) {
			t.Fatalf("wrote %d bytes (BytesWritten %d), want exactly stripe 0's %d", buf.Len(), info.BytesWritten, bl*k)
		}
		// The relocation did commit: a fresh read succeeds, so the
		// failure above was the no-retry rule, not lost data.
		if got, _, err := s.Get("late"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get after relocation: %v", err)
		}
	}
}
