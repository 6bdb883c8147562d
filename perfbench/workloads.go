package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// A workload preloads and warms a cluster, then runs one closed-loop
// request at a time per client, optionally with background work.
type workload interface {
	// prepare preloads the objects through the clients and warms the
	// cluster. It is part of set-up.
	prepare(c *cluster, cls []*client) error
	// op runs one request for client i.
	op(i int, cl *client)
	// liveBytes is the object payload the cluster holds after prepare.
	liveBytes() int64
}

// background is implemented by workloads that run work beside the
// clients until stop is closed.
type background interface {
	run(c *cluster, tr *tracer, stop <-chan struct{}) repairLog
}

var workloadNames = []string{"mixed-put-get", "degraded-read", "repair-under-load"}

func newWorkload(name string, seed int64, clients int) (workload, error) {
	switch name {
	case "mixed-put-get":
		return newMixed(seed, clients), nil
	case "degraded-read":
		return newDegraded(seed, clients), nil
	case "repair-under-load":
		return newRepair(seed, clients), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// each runs f for every client in parallel and returns the first
// failure any of them recorded.
func each(cls []*client, f func(i int, cl *client)) error {
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			f(i, cl)
		}(i, cl)
	}
	wg.Wait()
	for _, cl := range cls {
		if cl.failed > 0 {
			return fmt.Errorf("set-up request failed: %w", cl.firstErr)
		}
	}
	return nil
}

// loadAll PUTs every object once and then GETs each once, the objects
// split across the clients.
func loadAll(cls []*client, objs []*object) error {
	if err := each(cls, func(i int, cl *client) {
		for j := i; j < len(objs); j += len(cls) {
			cl.put(objs[j])
		}
	}); err != nil {
		return err
	}
	return warm(cls, objs)
}

func warm(cls []*client, objs []*object) error {
	return each(cls, func(i int, cl *client) {
		for j := i; j < len(objs); j += len(cls) {
			cl.get(objs[j], 0, 0)
		}
	})
}

func sumSizes(objs []*object) int64 {
	var n int64
	for _, o := range objs {
		n += int64(o.size)
	}
	return n
}

// mixed-put-get: a healthy cluster, half PUTs and half full-object GETs.
// Each client owns 48 keys, 16 each of 4 KiB, 64 KiB and 1 MiB, so a GET
// always knows the version it must read. Every deck of 96 requests holds
// one PUT and one GET per key in seeded order: the size and verb mix is
// exact in every run and only the order follows the seed.
type mixed struct {
	owned [][]*object
	decks [][]deckOp
	pos   []int
	rngs  []*rng
}

type deckOp struct {
	verb int
	obj  *object
}

var mixedSizes = []int{4 << 10, 64 << 10, 1 << 20}

const mixedKeysPerSize = 16

func newMixed(seed int64, clients int) *mixed {
	w := &mixed{}
	for i := 0; i < clients; i++ {
		var objs []*object
		var deck []deckOp
		for _, size := range mixedSizes {
			for j := 0; j < mixedKeysPerSize; j++ {
				o := &object{key: len(w.owned)*1000 + len(objs), size: size}
				objs = append(objs, o)
				deck = append(deck, deckOp{verbPut, o}, deckOp{verbGet, o})
			}
		}
		w.owned = append(w.owned, objs)
		w.decks = append(w.decks, deck)
		w.pos = append(w.pos, len(deck))
		w.rngs = append(w.rngs, newRNG(seed, i))
	}
	return w
}

func (w *mixed) prepare(_ *cluster, cls []*client) error {
	if err := each(cls, func(i int, cl *client) {
		for _, o := range w.owned[i] {
			cl.put(o)
		}
	}); err != nil {
		return err
	}
	return each(cls, func(i int, cl *client) {
		for _, o := range w.owned[i] {
			cl.get(o, 0, 0)
		}
	})
}

func (w *mixed) op(i int, cl *client) {
	deck := w.decks[i]
	if w.pos[i] == len(deck) {
		w.rngs[i].shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		w.pos[i] = 0
	}
	d := deck[w.pos[i]]
	w.pos[i]++
	if d.verb == verbPut {
		cl.put(d.obj)
	} else {
		cl.get(d.obj, 0, 0)
	}
}

func (w *mixed) liveBytes() int64 {
	var n int64
	for _, objs := range w.owned {
		n += sumSizes(objs)
	}
	return n
}

// degraded-read: one node dead for the whole run, GET-only over 4 MiB
// objects chosen uniformly from a working set three times the block
// cache, and a share of the stripes need a light reconstruction. An
// object's blocks enter and leave the LRU together, so a GET finds its
// object mostly cached or mostly not: at twice the cache the two modes
// split the requests evenly and the median flips between them from run
// to run; at three times, the median lies inside the uncached mode.
type degraded struct {
	objs []*object
	rngs []*rng
}

// The dead node is the same in every run: nodes hold different shares
// of data blocks, so a seeded victim would move the degraded share, and
// the GET median with it, from seed to seed.
const (
	degradedObjects = 3 * cacheBytes / degradedSize
	degradedSize    = 4 << 20
	degradedVictim  = 0
)

func newDegraded(seed int64, clients int) *degraded {
	w := &degraded{}
	for k := 0; k < degradedObjects; k++ {
		w.objs = append(w.objs, &object{key: k, size: degradedSize})
	}
	for i := 0; i < clients; i++ {
		w.rngs = append(w.rngs, newRNG(seed, i))
	}
	return w
}

func (w *degraded) prepare(c *cluster, cls []*client) error {
	if err := each(cls, func(i int, cl *client) {
		for j := i; j < len(w.objs); j += len(cls) {
			cl.put(w.objs[j])
		}
	}); err != nil {
		return err
	}
	c.st.KillNode(degradedVictim)
	return warm(cls, w.objs)
}

func (w *degraded) op(i int, cl *client) {
	cl.get(w.objs[w.rngs[i].intn(len(w.objs))], 0, 0)
}

func (w *degraded) liveBytes() int64 { return sumSizes(w.objs) }

// repair-under-load: node after node dies and is repaired — KillNode,
// ScrubPresence, Drain, ReviveNode — over a cold set, while the clients
// issue Zipf-skewed 64 KiB ranged GETs on a hot set that fits in the
// cache.
type repairLoad struct {
	hot, cold []*object
	cdf       []float64
	rngs      []*rng
}

const (
	repairHotObjects  = 32
	repairColdObjects = 128
	repairObjectSize  = 1 << 20
	rangeBytes        = 64 << 10
	zipfS             = 1.1
)

func newRepair(seed int64, clients int) *repairLoad {
	w := &repairLoad{}
	var sum float64
	for k := 0; k < repairHotObjects; k++ {
		w.hot = append(w.hot, &object{key: k, size: repairObjectSize})
		sum += 1 / math.Pow(float64(k+1), zipfS)
		w.cdf = append(w.cdf, sum)
	}
	for k := range w.cdf {
		w.cdf[k] /= sum
	}
	for k := 0; k < repairColdObjects; k++ {
		w.cold = append(w.cold, &object{key: 10000 + k, size: repairObjectSize})
	}
	for i := 0; i < clients; i++ {
		w.rngs = append(w.rngs, newRNG(seed, i))
	}
	return w
}

func (w *repairLoad) prepare(_ *cluster, cls []*client) error {
	if err := each(cls, func(i int, cl *client) {
		for j := i; j < len(w.cold); j += len(cls) {
			cl.put(w.cold[j])
		}
	}); err != nil {
		return err
	}
	return loadAll(cls, w.hot)
}

func (w *repairLoad) op(i int, cl *client) {
	r := w.rngs[i]
	o := w.hot[sort.SearchFloat64s(w.cdf, r.float())]
	cl.get(o, r.intn(o.size-rangeBytes+1), rangeBytes)
}

func (w *repairLoad) liveBytes() int64 { return sumSizes(w.hot) + sumSizes(w.cold) }

// repairLog is what the victim loop did.
type repairLog struct {
	victims          int
	drain, scrub     time.Duration
	repairedBytes    int64
	repairedBlocks   int64
	repairBlocksRead int64
	// mbs is each victim's payload rebuilt per second of its drain.
	mbs []float64
}

// run kills, finds, repairs and revives nodes 0, 1, 2, ... in turn until
// stop closes, finishing the cycle in progress.
func (w *repairLoad) run(c *cluster, tr *tracer, stop <-chan struct{}) repairLog {
	var log repairLog
	for j := 0; ; j++ {
		select {
		case <-stop:
			return log
		default:
		}
		v := j % clusterNodes
		m0 := c.st.Metrics()
		c.st.KillNode(v)
		t0, s0 := time.Now(), tr.now()
		c.sc.ScrubPresence()
		t1, s1 := time.Now(), tr.now()
		tr.record(layerRepair, kindScrub, s0, 0)
		c.rm.Drain()
		t2 := time.Now()
		tr.record(layerRepair, kindDrain, s1, 0)
		c.st.ReviveNode(v)
		m1 := c.st.Metrics()
		log.victims++
		log.scrub += t1.Sub(t0)
		log.drain += t2.Sub(t1)
		log.repairedBytes += m1.RepairedBytes - m0.RepairedBytes
		log.mbs = append(log.mbs, ratio(m1.RepairedBytes-m0.RepairedBytes, int64(t2.Sub(t1)))*1e3)
		log.repairedBlocks += m1.RepairedBlocks - m0.RepairedBlocks
		log.repairBlocksRead += m1.RepairBlocksRead - m0.RepairBlocksRead
	}
}
