// Command perfbench runs the whole deployed stack in one process — HTTP
// client → gateway → store → netblock TCP → DirBackend with fsync — and
// drives it over loopback HTTP with closed-loop clients.
//
//	perfbench -workload mixed-put-get -seed 1 -seconds 10 -trace 0 -data DIR
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// one client, first untraced and then with every layer boundary timed,
// and prints the per-layer split. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for object bytes, request order and range offsets")
	seconds := flag.Float64("seconds", 10, "timed seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 2 clients; 1: per-layer metrics, 1 client")
	data := flag.String("data", "", "scratch directory for block servers and the WAL (required; its files are deleted before and after)")
	dataFS := flag.String("data-fs", "disk", "what -data is on, for the report: tmpfs or disk")
	flag.Parse()
	fmt.Printf("data directory on %s; every fsync is issued\n", *dataFS)
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace, *data); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) add(name string, v float64, unit, note string) {
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-42s %14.4f %-8s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
}

func run(name string, seed int64, d time.Duration, trace int, data string) error {
	if _, err := newWorkload(name, seed, 1); err != nil {
		return err
	}
	if data == "" {
		return fmt.Errorf("need -data")
	}
	if d <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := removeFiles(data); err != nil {
		return err
	}
	var res result
	var err error
	if trace == 0 {
		res, err = runEndToEnd(name, seed, d, data)
	} else {
		res, err = runTraced(name, seed, d, data)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run failed its checks")
	}
	return nil
}

// stack is one booted cluster with its workload and clients.
type stack struct {
	c   *cluster
	w   workload
	cls []*client
}

func setUp(name string, seed int64, dir string, clients int, tr *tracer) (*stack, error) {
	c, err := boot(dir, tr)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed, clients)
	if err != nil {
		c.close()
		return nil, err
	}
	data := newContent(seed)
	s := &stack{c: c, w: w}
	for i := 0; i < clients; i++ {
		s.cls = append(s.cls, newClient(c.url, data, tr))
	}
	if err := w.prepare(c, s.cls); err != nil {
		s.close()
		return nil, err
	}
	reset(s.cls)
	return s, nil
}

func (s *stack) close() error {
	for _, cl := range s.cls {
		cl.close()
	}
	return s.c.close()
}

// drive runs every client closed-loop for d, with the workload's
// background work alongside, and returns when all of it has stopped.
// elapsed runs until the last client's last request completed.
func (s *stack) drive(d time.Duration, tr *tracer) (start time.Time, elapsed time.Duration, log repairLog) {
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if b, ok := s.w.(background); ok {
		bg.Add(1)
		go func() {
			defer bg.Done()
			log = b.run(s.c, tr, stop)
		}()
	}
	start = time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, cl := range s.cls {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s.w.op(i, cl)
			}
		}(i, cl)
	}
	wg.Wait()
	elapsed = time.Since(start)
	close(stop)
	bg.Wait()
	return start, elapsed, log
}

// An end-to-end run sets up setups times, tearing down all but the last
// set-up again; setup_s is the median of their times.
const (
	endToEndClients = 2
	setups          = 3
)

func runEndToEnd(name string, seed int64, d time.Duration, data string) (result, error) {
	var times []float64
	var s *stack
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return result{}, err
			}
			s = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		s, err = setUp(name, seed, data, endToEndClients, nil)
		if err != nil {
			return result{}, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer s.close()
	onDisk, err := s.c.blockBytes()
	if err != nil {
		return result{}, err
	}
	stored := float64(onDisk) / float64(s.w.liveBytes())

	start, elapsed, log := s.drive(d, nil)
	t := merge(s.cls)
	secs := elapsed.Seconds()
	ops, bytes := windowRates(t.done, start, d, rateWindows)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	r := newReport()
	r.add("setup_s", median(times), "s", fmt.Sprintf("median of %d set-ups", len(times)))
	r.add("ops_s", ops[verbPut]+ops[verbGet], "1/s", windowNote)
	get := t.lat[verbGet]
	r.add("get_mb_s", bytes[verbGet]/1e6, "MB/s", windowNote)
	r.add("get_p50_ms", quantileMs(get, 0.50), "ms", samples(get, 0.50))
	lead := get
	mainMB := bytes[verbGet] / 1e6
	switch name {
	case "mixed-put-get":
		lead = t.lat[verbPut]
		mainMB = bytes[verbPut] / 1e6
	case "repair-under-load":
		mainMB = median(log.mbs)
	}
	r.add("main_mb_s", mainMB, "MB/s", mainNote[name])
	r.add("main_p50_ms", quantileMs(lead, 0.50), "ms", samples(lead, 0.50))
	r.add("stored_bytes_per_user_byte", stored, "ratio", "block files on disk / live object bytes")
	r.add("peak_rss_mb", rss, "MB", "")

	fmt.Printf("workload %s, seed %d, %d closed-loop clients, %.1f s timed\n", name, seed, endToEndClients, secs)
	r.print()
	fmt.Println("per-verb names:")
	printNamed(t, ops, log, r)
	return finish(t, r.metrics), nil
}

// Throughputs are the median over rateWindows equal windows of the timed
// phase, and repair throughput the median over victims: a few seconds
// of host stall then move one window, not the run's figure.
const rateWindows = 10

const windowNote = "median of 10 windows"

// mainNote says what main_* measures on each workload.
var mainNote = map[string]string{
	"mixed-put-get":     "PUT bodies; median of 10 windows",
	"degraded-read":     "GET bodies; median of 10 windows",
	"repair-under-load": "rebuilt payload per second of drain; median over victims",
}

// printNamed prints the end-to-end metrics under their per-verb names,
// n/a where the workload has no such request.
func printNamed(t tally, ops [2]float64, log repairLog, r *report) {
	na := func(n string) { fmt.Printf("  %-42s %14s\n", n, "n/a") }
	put := t.lat[verbPut]
	if len(put) > 0 {
		fmt.Printf("  %-42s %14.4f 1/s      %s\n", "put_ops_s", ops[verbPut], windowNote)
		fmt.Printf("  %-42s %14.4f ms       %s\n", "put_p50_ms", quantileMs(put, 0.5), samples(put, 0.5))
		fmt.Printf("  %-42s %14.4f ms       %s\n", "put_p99_ms", quantileMs(put, 0.99), samples(put, 0.99))
	} else {
		na("put_ops_s")
		na("put_p50_ms")
		na("put_p99_ms")
	}
	for _, n := range []string{"get_mb_s", "get_p50_ms"} {
		m := r.metrics[n]
		fmt.Printf("  %-42s %14.4f %-8s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	get := t.lat[verbGet]
	fmt.Printf("  %-42s %14.4f ms       %s\n", "get_p99_ms", quantileMs(get, 0.99), samples(get, 0.99))
	if log.victims > 0 {
		fmt.Printf("  %-42s %14.4f MB/s     median over %d victims, %.2f s of drain\n", "repair_mb_s",
			median(log.mbs), log.victims, log.drain.Seconds())
		fmt.Printf("  %-42s %14.4f blocks\n", "repair_read_blocks_per_block",
			ratio(log.repairBlocksRead, log.repairedBlocks))
	} else {
		na("repair_mb_s")
		na("repair_read_blocks_per_block")
	}
	for _, n := range []string{"stored_bytes_per_user_byte", "peak_rss_mb"} {
		m := r.metrics[n]
		fmt.Printf("  %-42s %14.4f %-8s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-42s %14.4f ratio    %d failed of %d attempted\n", "failed_op_ratio",
		ratio(int64(t.failed), int64(t.attempted)), t.failed, t.attempted)
}

func finish(t tally, m map[string]metric) result {
	if t.firstErr != nil {
		fmt.Println("first failure:", t.firstErr)
	}
	return result{
		Correct:   t.mismatch == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
}

// samples describes the sample behind a quantile: its size and how many
// values lie beyond it.
func samples(sorted []time.Duration, q float64) string {
	if len(sorted) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d, %d beyond", len(sorted), len(sorted)-rank(len(sorted), q))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return float64(kb) * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
