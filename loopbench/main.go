// Command loopbench is the repository's end-to-end benchmark. It stands up
// a full deployment over loopback TCP inside its own process, drives one
// named workload for a fixed time, checks the outputs, and prints one
// JSON result line. See README.md for the deployment, the workloads and
// the metrics.
//
//	bash loopbench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/store"
	"repro/internal/workload"
)

const (
	setupRounds   = 5                // deployments built per run; setup_s is their median
	setupDeadline = 15 * time.Second // per deployment
	warmup        = 2 * time.Second
	quiesceWait   = 10 * time.Second
	traceChunks   = 8 // alternating untraced/traced slices of a traced run
	watchdog      = 160 * time.Second
)

// workloadSpec shapes one workload: closed-loop reader clients (each on
// its own slave), which query mix they draw, and whether one more client
// runs the open-loop write wave stream.
type workloadSpec struct {
	readers int
	scan    bool
	writer  bool
}

var workloads = map[string]workloadSpec{
	"read-hot":      {readers: 2},
	"write-durable": {writer: true},
	"scan-write":    {readers: 1, scan: true, writer: true},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }
func msOf(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: read-hot, write-durable or scan-write")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "loopbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "loopbench: %v\n", err)
		return 1
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "loopbench: watchdog: %s did not finish within %v\n", *name, watchdog)
		os.Exit(3)
	})
	b := &bench{name: *name, spec: spec, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, workdir: *workdir}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loopbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type bench struct {
	name    string
	spec    workloadSpec
	seed    int64
	window  time.Duration
	traced  bool
	workdir string
}

// statWindow is the sub-window over which an untraced run computes
// throughput, CPU per op and the median read latency; it reports the
// median over its sub-windows, so a short stall on a shared host moves
// one sub-window, not the result. Write-only runs complete 8 waves a
// second and use longer sub-windows.
func (b *bench) statWindow() time.Duration {
	if b.spec.readers > 0 {
		return time.Second
	}
	return 5 * time.Second
}

// chunkTotals accumulates one kind of slice (untraced or traced) of a
// traced run.
type chunkTotals struct {
	cpu          time.Duration
	ops, batches int64
}

// measurement is what the measured window recorded besides the load's own
// samples.
type measurement struct {
	elapsed, cpu  time.Duration
	marks         []int64         // sub-window boundaries, tracer clock
	cpus          []time.Duration // process CPU time at each mark
	chunks        [2]chunkTotals  // traced run: [untraced, traced] slices
	before, after counters
	mem0, mem1    runtime.MemStats
	samp          *sampler
}

func (b *bench) run() (*result, error) {
	fmt.Printf("loopbench workload=%s seed=%d seconds=%v trace=%t\n", b.name, b.seed, b.window.Seconds(), b.traced)
	content := workload.BuildContent(nCatalog, nDocs)
	tr := newTracer()
	d, setups, err := b.setup(content, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()

	l := &load{tr: tr}
	rng := rand.New(rand.NewSource(b.seed))
	for i := 0; i < b.spec.readers; i++ {
		crng := rand.New(rand.NewSource(rng.Int63()))
		next, check := hotReads(crng, content)
		if b.spec.scan {
			next, check = scanReads(crng)
		}
		l.reader(d.clients[i], fmt.Sprintf("c%d", i), next, check)
	}
	if b.spec.writer {
		l.writer(d.clients[b.spec.readers], fmt.Sprintf("c%d", b.spec.readers), rand.New(rand.NewSource(rng.Int63())))
	}
	time.Sleep(warmup)
	ms := b.measure(d, l, tr)
	l.stop()

	res := &result{Correct: b.check(d, l), Attempted: max(l.attempted.Load(), 1), Failed: l.failed.Load(), Metrics: metricSet{}}
	b.report(l, ms)
	if !b.traced {
		b.endToEnd(res.Metrics, setups, l, ms)
		return res, nil
	}
	if err := b.perLayer(res.Metrics, d, l, ms, tr); err != nil {
		return nil, err
	}
	d.close()
	if err := primitives(b.workdir, b.seed, content, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// setup builds the fleet setupRounds times, timing each from the start of
// construction to the first accepted verified read, and keeps the last.
func (b *bench) setup(content *store.Store, tr *tracer) (*deployment, []int64, error) {
	nClients := b.spec.readers
	if b.spec.writer {
		nClients++
	}
	setups := make([]int64, 0, setupRounds)
	for i := 1; ; i++ {
		t0 := time.Now()
		d, err := deploy(b.workdir, nClients, content, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if err := d.firstRead(t0.Add(setupDeadline)); err != nil {
			d.close()
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, int64(time.Since(t0)))
		if i < setupRounds {
			d.close()
			continue
		}
		if err := d.setupClients(b.spec.readers); err != nil {
			d.close()
			return nil, nil, err
		}
		ms := make([]string, len(setups))
		for j, s := range setups {
			ms[j] = fmt.Sprintf("%.1f", msOf(s))
		}
		fmt.Printf("setup: median %.4f s over %d set-ups (construction to first accepted verified read), ms: %s\n",
			float64(quantile(setups, 0.5))/1e9, len(setups), strings.Join(ms, " "))
		return d, setups, nil
	}
}

// measure runs the measured window. An untraced run marks sub-window
// boundaries; a traced run alternates untraced and traced slices so
// tracing overhead is measured within the run.
func (b *bench) measure(d *deployment, l *load, tr *tracer) *measurement {
	ms := &measurement{before: d.counters()}
	runtime.ReadMemStats(&ms.mem0)
	if b.traced {
		ms.samp = startSampler(d, 5*time.Millisecond)
	}
	ops := func() int64 { return l.nReads.Load() + l.nWrites.Load() }
	t0, cpu0 := time.Now(), cpuTime()
	ms.marks, ms.cpus = []int64{tr.now()}, []time.Duration{cpu0}
	l.phase.Store(phaseMeasure)
	n := traceChunks
	if !b.traced {
		n = max(1, int(b.window/b.statWindow()))
	}
	for k := 1; k <= n; k++ {
		traced := b.traced && k%2 == 0
		tr.on.Store(traced)
		c0, o0, b0 := ms.cpus[k-1], ops(), d.masters[0].Stats().BatchesApplied
		time.Sleep(time.Until(t0.Add(time.Duration(k) * b.window / time.Duration(n))))
		ms.marks, ms.cpus = append(ms.marks, tr.now()), append(ms.cpus, cpuTime())
		if b.traced {
			acc := &ms.chunks[0]
			if traced {
				acc = &ms.chunks[1]
			}
			acc.cpu += ms.cpus[k] - c0
			acc.ops += ops() - o0
			acc.batches += int64(d.masters[0].Stats().BatchesApplied - b0)
		}
	}
	tr.on.Store(false)
	ms.elapsed, ms.cpu = time.Since(t0), ms.cpus[n]-cpu0
	runtime.ReadMemStats(&ms.mem1)
	ms.after = d.counters()
	if ms.samp != nil {
		ms.samp.finish()
	}
	return ms
}

// check quiesces the fleet and prints the correctness checks; it reports
// whether all passed.
func (b *bench) check(d *deployment, l *load) bool {
	vers, converged := d.quiesce(time.Now().Add(quiesceWait))
	final := d.counters()
	var exclusions uint64
	for _, m := range final.masters {
		exclusions = max(exclusions, m.Exclusions)
	}
	mismatches := final.auditor.Mismatches

	type check struct {
		name   string
		ok     bool
		detail string
	}
	var checks []check
	if b.spec.readers > 0 {
		what := "read-hot payloads equal the static content"
		if b.spec.scan {
			what = "scan payloads decode as their query's result"
		}
		wrong := l.wrongPayloads.Load()
		checks = append(checks, check{what, wrong == 0, fmt.Sprintf("%d wrong", wrong)})
	}
	if b.spec.writer {
		ok, n := l.versionsOK()
		checks = append(checks, check{"write versions non-zero and distinct", ok, fmt.Sprintf("%d versions", n)})
	}
	checks = append(checks,
		check{"masters, slaves and auditor at one version after quiesce", converged, vers.String()},
		check{"masters and slaves report one StateDigest", converged && d.digestsAgree(), ""},
		check{"core.master.exclusions on the honest fleet", exclusions == 0, fmt.Sprint(exclusions)},
		check{"core.auditor.mismatches on the honest fleet", mismatches == 0, fmt.Sprint(mismatches)},
	)
	correct := true
	for _, c := range checks {
		status := "ok"
		if !c.ok {
			status, correct = "FAIL", false
		}
		fmt.Printf("check %-58s %s %s\n", c.name+":", status, c.detail)
	}
	if exclusions > 0 || mismatches > 0 {
		fmt.Println("note: honest slaves were convicted; see loopbench/README.md, known slave read/update race")
	}
	return correct
}

func lats(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// report prints the whole-window figures with their sample counts.
func (b *bench) report(l *load, ms *measurement) {
	secs := ms.elapsed.Seconds()
	reads, writes := l.nReads.Load(), l.nWrites.Load()
	fmt.Printf("window: %.3f s, %d ops attempted, %d failed\n", secs, l.attempted.Load(), l.failed.Load())
	if b.spec.readers > 0 {
		rl := lats(l.reads)
		fmt.Printf("reads: %d accepted (%.1f/s), latency p50 %.4f ms p99 %.4f ms over %d samples\n",
			reads, float64(reads)/secs, msOf(quantile(rl, 0.5)), msOf(quantile(rl, 0.99)), len(rl))
	}
	if b.spec.writer {
		wl := lats(l.waves)
		fmt.Printf("writes: %d committed (%.1f/s) in %d waves, wave latency p50 %.4f ms p90 %.4f ms, send lag p99 %.4f ms\n",
			writes, float64(writes)/secs, len(wl), msOf(quantile(wl, 0.5)), msOf(quantile(wl, 0.9)),
			msOf(quantile(l.waveLag, 0.99)))
	}
	fmt.Printf("cpu: %.3f s user+sys over the window, %.1f us per op; peak RSS %s\n",
		ms.cpu.Seconds(), usOf(int64(ms.cpu))/float64(max(reads+writes, 1)), peakRSS())
}

// peakRSS is the process's peak resident set size as the kernel reports
// it, or "unknown" where /proc is unavailable.
func peakRSS() string {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowOf returns the index of the sub-window (or slice) holding tracer
// time at, or -1 outside the measured window.
func (ms *measurement) windowOf(at int64) int {
	k := sort.Search(len(ms.marks), func(i int) bool { return ms.marks[i] > at }) - 1
	if k >= len(ms.marks)-1 {
		return -1
	}
	return k
}

// endToEnd reports the untraced run's metrics. Throughput and CPU per op
// are medians over the sub-windows. Read workloads report the median over
// sub-windows of each sub-window's median read latency; the write-only
// workload, which completes only 8 waves a second, reports the median
// wave latency over the whole window.
func (b *bench) endToEnd(m metricSet, setups []int64, l *load, ms *measurement) {
	nw := len(ms.marks) - 1
	readLats := make([][]int64, nw)
	readOps, writeOps := make([]int64, nw), make([]int64, nw)
	for _, s := range l.reads {
		if k := ms.windowOf(s.at); k >= 0 {
			readLats[k] = append(readLats[k], s.lat)
			readOps[k]++
		}
	}
	for _, s := range l.waves {
		if k := ms.windowOf(s.at); k >= 0 {
			writeOps[k] += s.n
		}
	}
	var opsS, cpuOp, p50 []float64
	for k := 0; k < nw; k++ {
		secs := float64(ms.marks[k+1]-ms.marks[k]) / 1e9
		done := writeOps[k]
		if b.spec.readers > 0 {
			done = readOps[k]
			p50 = append(p50, msOf(quantile(readLats[k], 0.5)))
		}
		opsS = append(opsS, float64(done)/secs)
		cpuOp = append(cpuOp, usOf(int64(ms.cpus[k+1]-ms.cpus[k]))/float64(max(readOps[k]+writeOps[k], 1)))
	}
	m.add("setup_s", float64(quantile(setups, 0.5))/1e9, "s")
	m.add("ops_s", medianF(opsS), "1/s")
	m.add("cpu_us_per_op", medianF(cpuOp), "us")
	if b.spec.readers > 0 {
		m.add("p50_ms", medianF(p50), "ms")
	} else {
		m.add("p50_ms", msOf(quantile(lats(l.waves), 0.5)), "ms")
	}
	fmt.Printf("end-to-end: %d sub-windows of %v\n", nw, b.statWindow())
}

// perLayer reports the traced run's metrics: span-derived rpc and client
// figures, node Stats, the sampler, and Go runtime counters.
func (b *bench) perLayer(m metricSet, d *deployment, l *load, ms *measurement, tr *tracer) error {
	t := tr.link(d.names)
	opMethod := "read"
	if b.spec.readers == 0 {
		opMethod = "wave"
	}
	t.metrics(ms.chunks[1].ops, ms.chunks[1].batches, opMethod, m)
	path := filepath.Join(b.workdir, "spans-"+b.name+".tsv")
	if err := t.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s; traced slices %d ops, untraced %d ops\n",
		len(t.spans), path, ms.chunks[1].ops, ms.chunks[0].ops)
	perOpU := float64(ms.chunks[0].cpu) / float64(max(ms.chunks[0].ops, 1))
	perOpT := float64(ms.chunks[1].cpu) / float64(max(ms.chunks[1].ops, 1))
	m.add("trace.overhead_pct", 100*(perOpT/perOpU-1), "%")

	reads, writes := l.nReads.Load(), l.nWrites.Load()
	layerMetrics(m, ms.before, ms.after, d.counters(), float64(reads))
	m.add("core.auditor.backlog_max", float64(ms.samp.backlog), "count")
	m.add("wal.disk_bytes_per_write", float64(ms.samp.dirGrown)/float64(max(writes, 1)), "B")
	fops := float64(max(reads+writes, 1))
	m.add("go.allocs_per_op", float64(ms.mem1.Mallocs-ms.mem0.Mallocs)/fops, "count")
	m.add("go.bytes_alloc_per_op", float64(ms.mem1.TotalAlloc-ms.mem0.TotalAlloc)/fops, "B")
	m.add("go.gc_cycles_per_kop", 1000*float64(ms.mem1.NumGC-ms.mem0.NumGC)/fops, "count")
	m.add("loadgen.lag_p99_ms", msOf(quantile(l.waveLag, 0.99)), "ms")

	// Tail latency from the untraced slices (even indexes) only.
	untraced := func(ss []sample) []int64 {
		var out []int64
		for _, s := range ss {
			if k := ms.windowOf(s.at); k >= 0 && k%2 == 0 {
				out = append(out, s.lat)
			}
		}
		return out
	}
	m.add("loadgen.read_p99_ms", msOf(quantile(untraced(l.reads), 0.99)), "ms")
	m.add("loadgen.wave_p90_ms", msOf(quantile(untraced(l.waves), 0.9)), "ms")
	return nil
}

// layerMetrics derives the node-layer metrics from the public Stats
// snapshots taken at the start and end of the window and after quiesce.
func layerMetrics(m metricSet, before, after, final counters, reads float64) {
	perRead := func(n uint64) float64 {
		if reads == 0 {
			return 0
		}
		return float64(n) / reads
	}
	var retries, doubles, cHits, cMiss uint64
	for i := range after.clients {
		a, b := after.clients[i], before.clients[i]
		retries += a.Retries - b.Retries
		doubles += a.DoubleChecks - b.DoubleChecks
		cHits += a.StampCacheHits - b.StampCacheHits
		cMiss += a.StampCacheMisses - b.StampCacheMisses
	}
	m.add("core.client.retries_per_read", perRead(retries), "count")
	m.add("core.client.stamp_cache_hit_ratio", ratio(cHits, cHits+cMiss), "ratio")
	m.add("core.client.double_check_ratio", perRead(doubles), "ratio")

	var refused, synced, sHits, sMiss uint64
	for i := range after.slaves {
		a, b := after.slaves[i], before.slaves[i]
		refused += a.ReadsRefused - b.ReadsRefused
		synced += a.UpdatesSynced - b.UpdatesSynced
		sHits += a.StampCacheHits - b.StampCacheHits
		sMiss += a.StampCacheMisses - b.StampCacheMisses
	}
	m.add("core.slave.reads_refused_per_read", perRead(refused), "count")
	m.add("core.slave.updates_synced", float64(synced), "count")
	m.add("core.slave.stamp_cache_hit_ratio", ratio(sHits, sHits+sMiss), "ratio")

	a, b := after.masters[0], before.masters[0]
	batches := a.BatchesApplied - b.BatchesApplied
	m.add("core.master.writes_per_batch", ratio(a.WritesApplied-b.WritesApplied, batches), "count")
	m.add("core.master.pacing_waits_per_batch", ratio(a.WritePacingWaits-b.WritePacingWaits, batches), "count")
	timer := a.BatchFlushTimer - b.BatchFlushTimer
	m.add("core.master.timer_flush_ratio", ratio(timer, timer+a.BatchFlushFull-b.BatchFlushFull), "ratio")
	m.add("core.master.checkpoints_applied", float64(a.CheckpointsApplied-b.CheckpointsApplied), "count")
	var syncs, exclusions uint64
	for i := range after.masters {
		syncs += after.masters[i].SyncsServed - before.masters[i].SyncsServed
		exclusions = max(exclusions, final.masters[i].Exclusions)
	}
	m.add("core.master.syncs_served", float64(syncs), "count")
	m.add("core.master.exclusions", float64(exclusions), "count")

	aa, ab, af := after.auditor, before.auditor, final.auditor
	m.add("core.auditor.cache_hit_ratio", ratio(aa.CacheHits-ab.CacheHits, aa.PledgesAudited-ab.PledgesAudited), "ratio")
	m.add("core.auditor.audited_ratio", ratio(af.PledgesAudited, af.PledgesReceived), "ratio")
	m.add("core.auditor.version_lag_max", float64(af.VersionLagMax), "count")
	m.add("core.auditor.mismatches", float64(af.Mismatches), "count")
}
