package store

import (
	"bytes"
	"fmt"
	"io"
)

// The read path is one pipeline: every read — Get, GetWriter, GetRange —
// is a byte window [off, off+length) streamed through streamRangeVersion,
// under one stale-manifest retry policy (readWindow). A full read is the
// window (0, -1).

// GetWriter streams an object to w stripe by stripe, reconstructing
// missing or corrupt blocks inline exactly like Get (light local decode
// first, so a single-loss stripe still costs the r=5 read set), with
// memory bounded by the two pipelined stripes. It is GetRange(name, 0,
// -1, w): the ReadInfo reports what the read actually cost, a failed
// attempt retries with a fresh manifest snapshot while nothing has been
// written to w, and once bytes are out a failure is final (the writer
// cannot be rewound).
//
// Like any ranged read, a full read fetches only the data positions
// that hold object bytes. A short final stripe whose tail is below about
// k(k−1) bytes has padding-only data blocks; those are neither read nor
// rebuilt, so for such tails BlocksRead is the covering-block count and
// a dead padding-only position never marks the read Degraded.
func (s *Store) GetWriter(name string, w io.Writer) (ReadInfo, error) {
	return s.GetRange(name, 0, -1, w)
}

// Get reads an object back, reconstructing missing or corrupt blocks
// inline (the degraded read path: rebuilt blocks are served, not written
// back — §1.1). The ReadInfo reports what the read actually cost. It is
// a buffered full-window read over the same pipeline as GetWriter, and
// it may retry even after bytes were buffered: the buffer rewinds where
// an external writer cannot.
func (s *Store) Get(name string) ([]byte, ReadInfo, error) {
	var buf bytes.Buffer
	info, err := s.readWindow(name, 0, -1, &buf, func() bool {
		buf.Reset()
		return true
	})
	if err != nil {
		return nil, info, err
	}
	info.BytesWritten = int64(buf.Len())
	return buf.Bytes(), info, nil
}

// GetRange streams bytes [off, off+length) of an object to w, with
// length < 0 meaning "to the end". Only the stripes the range overlaps
// are visited and, within each, only the data blocks the range covers
// are read (reconstructed when missing or corrupt, exactly like a full
// read) — a small range on a large object costs its covering blocks,
// not the object. The serving tier's Range: requests ride on this.
//
// off outside [0, size] returns ErrBadRange; length past the end is
// clamped. A failed attempt retries with a fresh manifest snapshot
// while nothing has been written to w; once bytes are out a failure is
// final.
func (s *Store) GetRange(name string, off, length int64, w io.Writer) (ReadInfo, error) {
	cw := &countingWriter{w: w}
	info, err := s.readWindow(name, off, length, cw, func() bool { return cw.n == 0 })
	info.BytesWritten = cw.n
	return info, err
}

// readWindow runs read attempts of the window until one succeeds or a
// retry cannot help. A failed attempt can mean the manifest snapshot
// went stale under the read: repair workers relocate blocks without a
// generation bump, and an overwrite replaces the version with one. A
// fresh snapshot sees the current block locations, so retry — at most 8
// times, only while canRetry allows (it also rewinds the caller's sink),
// and only while the manifest actually moved: a failure with an
// unchanged (gen, muts) pair is genuinely lost data, and retrying would
// just re-read every stripe to fail again.
func (s *Store) readWindow(name string, off, length int64, w io.Writer, canRetry func() bool) (ReadInfo, error) {
	for attempt := 0; ; attempt++ {
		gen0, muts0, _ := s.versionState(name)
		info, gen, err := s.streamRangeVersion(name, off, length, w)
		if err == nil || attempt >= 8 || !canRetry() {
			return info, err
		}
		curGen, curMuts, found := s.versionState(name)
		if !found {
			// Deleted mid-read: not-found is the truthful outcome.
			return info, fmt.Errorf("%w: %q", ErrObjectNotFound, name)
		}
		if curGen == gen && curGen == gen0 && curMuts == muts0 {
			// This object's manifest never moved around the attempt:
			// the snapshot was current and the failure is genuine.
			return info, err
		}
	}
}

// rangeSeg is one stripe's overlap with a requested range: the stripe
// index, the byte window [lo, hi) within the stripe's data, and the
// covering block positions [pLo, pHi].
type rangeSeg struct {
	idx      int
	lo, hi   int
	pLo, pHi int
}

// streamRangeVersion performs one read attempt of the window against
// the object version current at entry, returning that version's
// generation. The stripe pipeline is one deep: while segment i drains to
// w, segment i+1 is already being fetched into the other of two scratch
// slices that ping-pong for the whole read (the only per-stripe state),
// and each fetch covers only the blocks its byte window needs.
func (s *Store) streamRangeVersion(name string, off, length int64, w io.Writer) (ReadInfo, int64, error) {
	stripes, gen, ok := s.manifestSnapshot(name)
	if !ok {
		return ReadInfo{}, 0, fmt.Errorf("%w: %q", ErrObjectNotFound, name)
	}
	// The snapshot pinned this version (see manifestSnapshot); hold the
	// pin for the whole read so an overwrite cannot reclaim the blocks
	// under us, and release it whichever way the read ends.
	defer s.unpin(name, gen)
	var size int64
	for i := range stripes {
		size += int64(stripes[i].DataLen)
	}
	if off < 0 || off > size {
		return ReadInfo{}, gen, fmt.Errorf("%w: offset %d of %d-byte object %q", ErrBadRange, off, size, name)
	}
	if length < 0 || off+length > size {
		length = size - off
	}
	if length == 0 {
		// Empty window — an explicit zero length, or off == size. The
		// segment mapping below would also come up empty, but an explicit
		// gate keeps "no bytes wanted, no backend reads" an invariant
		// rather than a side effect of the loop bounds.
		return ReadInfo{}, gen, nil
	}
	end := off + length
	// Map the byte range onto stripe segments: [lo, hi) within each
	// overlapping stripe, and the block positions covering that window.
	var segs []rangeSeg
	base := int64(0)
	for i := range stripes {
		dl := int64(stripes[i].DataLen)
		if base+dl <= off {
			base += dl
			continue
		}
		if base >= end {
			break
		}
		lo, hi := int64(0), dl
		if off > base {
			lo = off - base
		}
		if end < base+dl {
			hi = end - base
		}
		if hi > lo {
			bl := int64(stripes[i].BlockLen)
			segs = append(segs, rangeSeg{
				idx: i,
				lo:  int(lo), hi: int(hi),
				pLo: int(lo / bl), pHi: int((hi - 1) / bl),
			})
		}
		base += dl
	}
	n := s.cfg.Codec.NStored()
	acct := &readAcct{}
	scratch := [2][][]byte{make([][]byte, n), make([][]byte, n)}
	startFetch := func(i int) chan fetchResult {
		ch := make(chan fetchResult, 1)
		go func() {
			ch <- s.fetchStripe(&stripes[segs[i].idx], scratch[i%2], segs[i].pLo, segs[i].pHi)
		}()
		return ch
	}
	var pending chan fetchResult
	if len(segs) > 0 {
		pending = startFetch(0)
	}
	for i := range segs {
		res := <-pending
		pending = nil
		acct.add(&res.acct)
		if res.err != nil {
			res.release(s.cache)
			s.m.mergeRead(acct)
			return acct.info(), gen, fmt.Errorf("store: degraded read of %q stripe %d: %w", name, segs[i].idx, res.err)
		}
		if i+1 < len(segs) {
			pending = startFetch(i + 1)
		}
		seg := &segs[i]
		bl := stripes[seg.idx].BlockLen
		for pos := seg.pLo; pos <= seg.pHi; pos++ {
			part := res.stripe[pos]
			// Trim the block's payload to the stripe's data (short final
			// stripe) and then to the segment's byte window.
			blockLo, blockHi := pos*bl, (pos+1)*bl
			if blockHi > seg.hi {
				blockHi = seg.hi
			}
			cutLo := 0
			if seg.lo > blockLo {
				cutLo = seg.lo - blockLo
			}
			if blockHi <= blockLo+cutLo {
				continue
			}
			part = part[cutLo : blockHi-blockLo]
			if _, err := w.Write(part); err != nil {
				res.release(s.cache)
				if pending != nil {
					// Join the prefetch; its reads are uncharged on this
					// failure path, but its cache pins still release.
					p := <-pending
					p.release(s.cache)
				}
				s.m.mergeRead(acct)
				return acct.info(), gen, fmt.Errorf("store: write object %q: %w", name, err)
			}
		}
		res.release(s.cache)
	}
	s.m.mergeRead(acct)
	return acct.info(), gen, nil
}

// manifestSnapshot captures an object's stripe manifest and pins the
// version. Both happen inside one db.View — the shard read lock — and a
// racing commit takes that shard's write lock before it can replace the
// manifest, so the pin is atomic with the lookup and the overwrite is
// guaranteed to see it when it retires this version. No deep copy:
// manifests in the plane are copy-on-write (a relocation commits a
// replacement), so the captured slices are immutable. The caller owns
// one unpin on ok=true.
func (s *Store) manifestSnapshot(name string) ([]stripeInfo, int64, bool) {
	var stripes []stripeInfo
	var gen int64
	ok := false
	s.db.View(objKey(name), func(v any, found bool) {
		if !found {
			return
		}
		obj := v.(*objectInfo)
		stripes, gen, ok = obj.Stripes, obj.Gen, true
		s.pin(name, obj.Gen)
	})
	return stripes, gen, ok
}

// versionState returns name's current generation and mutation count
// (repair relocations), and whether the object exists. A read whose
// attempt failed retries only when this pair has moved: gen changes on
// overwrite, muts on relocation, and an unchanged pair means the failed
// snapshot was current — genuine data loss, not staleness.
func (s *Store) versionState(name string) (gen, muts int64, found bool) {
	v, ok := s.db.Get(objKey(name))
	if !ok {
		return 0, 0, false
	}
	obj := v.(*objectInfo)
	return obj.Gen, obj.muts, true
}

// countingWriter tracks how many bytes reached the underlying writer, so
// a streaming read knows whether a retry is still possible.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
