package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// content is the seeded byte pool every object is cut from: version v of
// key k is the window of its size at an offset hashed from (seed, k, v).
// Sending and checking an object then cost no generation, and a body
// from the wrong key, the wrong version, the wrong offset or with blocks
// out of order does not match.
type content struct {
	seed uint64
	pool []byte
}

const poolBytes = 16 << 20

func newContent(seed int64) *content {
	c := &content{seed: uint64(seed), pool: make([]byte, poolBytes)}
	x := c.seed
	for i := 0; i+8 <= len(c.pool); i += 8 {
		binary.LittleEndian.PutUint64(c.pool[i:], splitmix(&x))
	}
	return c
}

// splitmix64 steps *x and returns the next output.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// object returns the bytes of one version of one key.
func (c *content) object(key, ver, size int) []byte {
	x := c.seed ^ uint64(key)<<32 ^ uint64(ver)
	off := int(splitmix(&x) % uint64(len(c.pool)-size+1))
	return c.pool[off : off+size]
}

// rng is a seeded splitmix64 stream for workload choices.
type rng struct{ x uint64 }

func newRNG(seed int64, stream int) *rng {
	return &rng{x: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<48}
}

func (r *rng) intn(n int) int { return int(splitmix(&r.x) % uint64(n)) }

func (r *rng) float() float64 { return float64(splitmix(&r.x)>>11) / (1 << 53) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// object is one key a client owns, with the version last acked for it.
// A PUT that failed leaves the key at either version, so both are
// accepted until the next acked PUT.
type object struct {
	key, size int
	ver, alt  int
}

// client is one closed-loop load generator on its own keep-alive
// connection. It times every request and checks every body.
type client struct {
	base string
	hc   *http.Client
	data *content
	tr   *tracer
	buf  []byte

	lat       [2][]time.Duration // by verbPut, verbGet
	bytes     [2]int64
	done      []completion
	attempted int
	failed    int
	mismatch  int
	firstErr  error
}

const (
	verbPut = 0
	verbGet = 1
)

// completion is one successful request: when it ended, and its body
// bytes.
type completion struct {
	verb  int
	end   time.Time
	bytes int64
}

// ok records a successful request.
func (cl *client) ok(verb int, start, end time.Time, n int) {
	cl.lat[verb] = append(cl.lat[verb], end.Sub(start))
	cl.bytes[verb] += int64(n)
	cl.done = append(cl.done, completion{verb: verb, end: end, bytes: int64(n)})
}

func newClient(base string, data *content, tr *tracer) *client {
	return &client{
		base: base,
		data: data,
		tr:   tr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

func keyURL(base string, key int) string { return base + "/t/bench/k" + strconv.Itoa(key) }

// fail counts a failed request; a body mismatch also fails the run.
func (cl *client) fail(err error, mismatch bool) {
	cl.failed++
	if mismatch {
		cl.mismatch++
	}
	if cl.firstErr == nil {
		cl.firstErr = err
	}
}

// put writes the next version of o and acks it on a 200.
func (cl *client) put(o *object) {
	cl.attempted++
	next := max(o.ver, o.alt) + 1
	body := cl.data.object(o.key, next, o.size)
	start := time.Now()
	t0 := cl.tr.now()
	req, err := http.NewRequest(http.MethodPut, keyURL(cl.base, o.key), bytes.NewReader(body))
	if err != nil {
		cl.fail(err, false)
		return
	}
	resp, err := cl.hc.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("PUT k%d: %s", o.key, resp.Status)
		}
	}
	end := time.Now()
	cl.tr.record(layerHTTP, kindPut, t0, 0)
	if err != nil {
		o.alt = next
		cl.fail(err, false)
		return
	}
	o.ver, o.alt = next, next
	cl.ok(verbPut, start, end, len(body))
}

// get reads o whole, or the window [off, off+n) when n > 0, and checks
// the body byte for byte against the acked version.
func (cl *client) get(o *object, off, n int) {
	cl.attempted++
	ranged := n > 0
	if !ranged {
		off, n = 0, o.size
	}
	if cap(cl.buf) < n {
		cl.buf = make([]byte, n)
	}
	got := cl.buf[:n]
	start := time.Now()
	t0 := cl.tr.now()
	err := cl.fetch(o.key, off, n, ranged, got)
	end := time.Now()
	cl.tr.record(layerHTTP, kindGet, t0, 0)
	if err != nil {
		cl.fail(err, false)
		return
	}
	c0 := cl.tr.now()
	same := bytes.Equal(got, cl.data.object(o.key, o.ver, o.size)[off:off+n]) ||
		bytes.Equal(got, cl.data.object(o.key, o.alt, o.size)[off:off+n])
	cl.tr.record(layerCheck, kindOther, c0, 0)
	if !same {
		cl.fail(fmt.Errorf("GET k%d [%d,%d): body differs from the acked version %d", o.key, off, off+n, o.ver), true)
		return
	}
	cl.ok(verbGet, start, end, n)
}

func (cl *client) fetch(key, off, n int, ranged bool, into []byte) error {
	req, err := http.NewRequest(http.MethodGet, keyURL(cl.base, key), nil)
	if err != nil {
		return err
	}
	want := http.StatusOK
	if ranged {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
		want = http.StatusPartialContent
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET k%d: %s", key, resp.Status)
	}
	if resp.ContentLength != int64(n) {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET k%d: Content-Length %d, want %d", key, resp.ContentLength, n)
	}
	if _, err := io.ReadFull(resp.Body, into); err != nil {
		return fmt.Errorf("GET k%d: %w", key, err)
	}
	if extra, _ := io.Copy(io.Discard, resp.Body); extra != 0 {
		return fmt.Errorf("GET k%d: %d bytes past Content-Length", key, extra)
	}
	return nil
}

// tally merges what a set of clients measured.
type tally struct {
	lat       [2][]time.Duration
	bytes     [2]int64
	done      []completion
	attempted int
	failed    int
	mismatch  int
	firstErr  error
}

func merge(cls []*client) tally {
	var t tally
	for _, cl := range cls {
		for v := range t.lat {
			t.lat[v] = append(t.lat[v], cl.lat[v]...)
			t.bytes[v] += cl.bytes[v]
		}
		t.done = append(t.done, cl.done...)
		t.attempted += cl.attempted
		t.failed += cl.failed
		t.mismatch += cl.mismatch
		if t.firstErr == nil {
			t.firstErr = cl.firstErr
		}
	}
	for v := range t.lat {
		sort.Slice(t.lat[v], func(i, j int) bool { return t.lat[v][i] < t.lat[v][j] })
	}
	return t
}

// reset forgets what the clients measured so far (a warm pass).
func reset(cls []*client) {
	for _, cl := range cls {
		cl.lat = [2][]time.Duration{}
		cl.bytes = [2]int64{}
		cl.done = nil
		cl.attempted, cl.failed, cl.mismatch = 0, 0, 0
	}
}

// quantileMs is the q-quantile of sorted latencies, in milliseconds,
// by the nearest-rank rule.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rank(len(sorted), q)-1]) / 1e6
}

// rank is the nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// windowRates cuts [start, start+d) into n equal windows and returns,
// per verb, the median over the windows of requests and body bytes
// completed per second. A stall that hits a few windows moves the
// median little; one that hits most of them moves it fully.
func windowRates(done []completion, start time.Time, d time.Duration, n int) (ops, bytes [2]float64) {
	w := d / time.Duration(n)
	var cnt, byt [2][]float64
	for v := range cnt {
		cnt[v] = make([]float64, n)
		byt[v] = make([]float64, n)
	}
	for _, c := range done {
		i := int(c.end.Sub(start) / w)
		if i < 0 || i >= n {
			continue
		}
		cnt[c.verb][i]++
		byt[c.verb][i] += float64(c.bytes)
	}
	for v := range cnt {
		for i := 0; i < n; i++ {
			cnt[v][i] /= w.Seconds()
			byt[v][i] /= w.Seconds()
		}
		ops[v], bytes[v] = median(cnt[v]), median(byt[v])
	}
	return ops, bytes
}
