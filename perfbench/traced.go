package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/gateway"
)

// minCoverage is the share of the traced window the layer self times
// must account for on the workloads without background work; the rest
// is the benchmark client's own time between requests.
const minCoverage = 0.90

// counters is every program counter the per-layer metrics read.
type counters struct {
	gw                 gateway.Snapshot
	allocBytes, cycles uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters(c *cluster) counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return counters{gw: c.gw.Metrics(), allocBytes: s[0].Value.Uint64(), cycles: s[1].Value.Uint64()}
}

// runTraced runs one client for half of d untraced, then for half of d
// with every layer boundary timed, and splits the traced half by layer.
func runTraced(name string, seed int64, d time.Duration, data string) (result, error) {
	tr := newTracer()
	s, err := setUp(name, seed, data, 1, tr)
	if err != nil {
		return result{}, err
	}
	defer s.close()

	s.drive(d/2, nil)
	plain := merge(s.cls)
	reset(s.cls)

	before := readCounters(s.c)
	tr.take()
	tr.on.Store(true)
	from := tr.now()
	_, elapsed, log := s.drive(d/2, tr)
	to := tr.now()
	tr.on.Store(false)
	after := readCounters(s.c)
	spans := tr.take()
	traced := merge(s.cls)

	r := perLayer(spans, from, to, traced, plain, before, after, log)
	fmt.Printf("workload %s, seed %d, 1 closed-loop client, %.1f s untraced then %.1f s traced\n",
		name, seed, (d / 2).Seconds(), elapsed.Seconds())
	r.print()

	res := finish(traced, r.metrics)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.mismatch == 0
	if name != "repair-under-load" {
		cov := r.metrics["trace.coverage"].Value
		if cov < minCoverage {
			fmt.Printf("FAIL: layer self times cover %.1f%% of the traced window, want at least %.0f%%\n", 100*cov, 100*minCoverage)
			res.Correct = false
		} else {
			fmt.Printf("ok: layer self times cover %.1f%% of the traced window (want at least %.0f%%)\n", 100*cov, 100*minCoverage)
		}
	}
	return res, nil
}

// spanStats sums the spans of one layer and kind.
type spanStats struct {
	calls int64
	dur   time.Duration
	n     int64
}

func (a spanStats) msPerCall() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.dur) / 1e6 / float64(a.calls)
}

func perLayer(spans []span, from, to int64, t, plain tally, before, after counters, log repairLog) *report {
	// Spans of codec, netblock and disk inside a drain window are repair
	// work; outside, they belong to the foreground requests.
	var drains [][2]int64
	for _, s := range spans {
		if s.layer == layerRepair && s.kind == kindDrain {
			drains = append(drains, [2]int64{s.start, s.end})
		}
	}
	inDrain := func(s span) bool {
		for _, w := range drains {
			if s.start >= w[0] && s.end <= w[1] {
				return true
			}
		}
		return false
	}
	var fg, rep [nSpanLayers][kindScrub + 1]spanStats
	for _, s := range spans {
		st := &fg[s.layer][s.kind]
		if inDrain(s) {
			st = &rep[s.layer][s.kind]
		}
		st.calls++
		st.dur += time.Duration(s.end - s.start)
		st.n += s.n
	}
	all := func(layer, kind uint8) spanStats {
		a, b := fg[layer][kind], rep[layer][kind]
		return spanStats{calls: a.calls + b.calls, dur: a.dur + b.dur, n: a.n + b.n}
	}
	split := splitByLayer(spans, from, to)

	puts := int64(len(t.lat[verbPut]))
	gets := int64(len(t.lat[verbGet]))
	ops := puts + gets
	g0, g1 := before.gw, after.gw
	sm0, sm1 := g0.Store, g1.Store
	repaired := log.repairedBlocks
	userWritten := t.bytes[verbPut] + log.repairedBytes
	userMoved := t.bytes[verbPut] + t.bytes[verbGet] + log.repairedBytes
	perOp := func(d time.Duration) float64 { return ratio(int64(d), ops) / 1e6 }

	r := newReport()
	r.add("http.overhead_ms_per_op", perOp(split.self[layerHTTP]), "ms", "client latency - handler time")
	r.add("gateway.self_ms_per_op", perOp(split.self[layerGateway]), "ms", "handler - codec - netblock")
	r.add("gateway.rejected_ops", float64(g1.AdmissionRejected-g0.AdmissionRejected), "count", "")
	r.add("store.blocks_read_per_get", ratio(sm1.ReadBlocks-sm0.ReadBlocks, gets), "blocks", "")
	r.add("store.degraded_get_share", ratio(sm1.DegradedReads-sm0.DegradedReads, gets), "ratio", "")
	r.add("store.light_repairs_per_get", ratio(sm1.LightRepairs-sm0.LightRepairs, gets), "blocks", "")
	hits, misses := sm1.CacheHits-sm0.CacheHits, sm1.CacheMisses-sm0.CacheMisses
	r.add("cache.hit_rate", ratio(hits, hits+misses), "ratio", fmt.Sprintf("%d lookups", hits+misses))
	r.add("cache.evictions_per_get", ratio(sm1.CacheEvictions-sm0.CacheEvictions, gets), "count", "")
	r.add("cache.invalidations_per_put", ratio(sm1.CacheInvalidations-sm0.CacheInvalidations, puts), "count", "")

	enc := all(layerCodec, kindEncode)
	fgRec, repRec := fg[layerCodec][kindReconstruct], rep[layerCodec][kindReconstruct]
	r.add("codec.self_ms_per_op", perOp(split.self[layerCodec]), "ms", "")
	r.add("codec.encode_ms_per_put", ratio(int64(enc.dur), puts)/1e6, "ms", "")
	r.add("codec.encode_mb_s", ratio(enc.n*1000, int64(enc.dur)), "MB/s", "data bytes in / encode time")
	r.add("codec.reconstruct_ms_per_get", ratio(int64(fgRec.dur), gets)/1e6, "ms", "")
	r.add("codec.reconstruct_blocks_per_get", ratio(fgRec.n, gets), "blocks", "")
	r.add("codec.reconstruct_ms_per_repaired_block", ratio(int64(repRec.dur), repaired)/1e6, "ms", "inside drains")

	nbR, nbW := all(layerNetblock, kindRead), all(layerNetblock, kindWrite)
	nbCalls := nbR.calls + nbW.calls + all(layerNetblock, kindDelete).calls
	wire := (sm1.WireSentBytes - sm0.WireSentBytes) + (sm1.WireRecvBytes - sm0.WireRecvBytes)
	r.add("netblock.read_calls_per_op", ratio(nbR.calls, ops+repaired), "calls", "op = request or repaired block")
	r.add("netblock.read_ms_per_call", nbR.msPerCall(), "ms", "")
	r.add("netblock.write_calls_per_put", ratio(nbW.calls, puts), "calls", "")
	r.add("netblock.write_ms_per_call", nbW.msPerCall(), "ms", "")
	r.add("netblock.self_ms_per_call", ratio(int64(split.self[layerNetblock]), nbCalls)/1e6, "ms", "netblock - disk")
	r.add("netblock.wire_bytes_per_user_byte", ratio(wire, userMoved), "ratio", "")
	r.add("netblock.breaker_opens", float64(sm1.BreakerOpens-sm0.BreakerOpens), "count", "")

	r.add("meta.fsyncs_per_put", ratio(sm1.MetaCommitBatches-sm0.MetaCommitBatches, puts), "count", "WAL group commits")
	r.add("meta.wal_bytes_per_put", ratio(sm1.MetaWALBytes-sm0.MetaWALBytes, puts), "bytes", "")

	dR, dW := all(layerDisk, kindRead), all(layerDisk, kindWrite)
	r.add("disk.self_ms_per_op", perOp(split.self[layerDisk]), "ms", "")
	r.add("disk.write_calls_per_put", ratio(dW.calls, puts), "calls", "2 fsyncs each")
	r.add("disk.write_ms_per_call", dW.msPerCall(), "ms", "")
	r.add("disk.read_ms_per_call", dR.msPerCall(), "ms", "")
	r.add("disk.bytes_written_per_user_byte", ratio(dW.n, userWritten), "ratio", "user bytes = PUT bodies + repaired payload")

	r.add("repair.drain_s_per_node", ratio(int64(log.drain), int64(log.victims))/1e9, "s", fmt.Sprintf("%d victims", log.victims))
	r.add("repair.scrub_presence_ms", ratio(int64(log.scrub), int64(log.victims))/1e6, "ms", "")
	r.add("repair.read_blocks_per_block", ratio(log.repairBlocksRead, log.repairedBlocks), "blocks", "")

	r.add("runtime.alloc_bytes_per_op", ratio(int64(after.allocBytes-before.allocBytes), ops), "bytes", "")
	r.add("runtime.gc_cycles_per_op", ratio(int64(after.cycles-before.cycles), ops), "count", "")

	r.add("trace.coverage", split.covered(), "ratio", "layer self times / (traced window - body checks)")
	r.add("trace.put_p50_overhead_ms", overhead(t.lat[verbPut], plain.lat[verbPut]), "ms", "traced - untraced")
	r.add("trace.get_p50_overhead_ms", overhead(t.lat[verbGet], plain.lat[verbGet]), "ms", "traced - untraced")
	return r
}

func overhead(traced, plain []time.Duration) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return quantileMs(traced, 0.5) - quantileMs(plain, 0.5)
}
