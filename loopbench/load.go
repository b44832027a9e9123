package main

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

const (
	waveSize   = 64
	wavePeriod = 125 * time.Millisecond // 512 writes/s: 80% of 64 writes per 100 ms
)

// Load phases. Operations that start in phaseMeasure are counted.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// load drives one workload against a deployment and records what it saw.
type load struct {
	tr    *tracer
	phase atomic.Int32

	// Counted for operations started in phaseMeasure. An op is a verified
	// read or a single write (a wave holds waveSize of them).
	attempted, failed atomic.Int64
	nReads, nWrites   atomic.Int64

	// Correctness, counted in every phase.
	wrongPayloads atomic.Int64

	mu       sync.Mutex
	reads    []sample // measured window
	waves    []sample // measured window; lat from the wave's scheduled send time
	waveLag  []int64  // ns each measured wave was sent after its scheduled time
	versions []uint64

	wg sync.WaitGroup
}

// sample is one completed operation: when it completed (tracer clock),
// its latency, and the ops it carried (1 for a read, the committed writes
// for a wave).
type sample struct{ at, lat, n int64 }

func (l *load) stop() {
	l.phase.Store(phaseStop)
	l.wg.Wait()
}

// opSpan records a client operation while tracing is on.
func (l *load) opSpan(node, method string, start int64, failed bool) {
	l.tr.add(kindOp, node, "", method, start, 0, failed)
}

// reader runs a closed loop of verified reads on c. check returns false
// for a payload that is provably wrong.
func (l *load) reader(c *core.Client, node string, next func() query.Query, check func(query.Query, []byte) bool) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		var done []sample
		defer func() {
			l.mu.Lock()
			l.reads = append(l.reads, done...)
			l.mu.Unlock()
		}()
		for {
			ph := l.phase.Load()
			if ph == phaseStop {
				return
			}
			q := next()
			traced := l.tr.on.Load()
			var ts int64
			if traced {
				ts = l.tr.now()
			}
			t0 := time.Now()
			payload, err := c.Read(q)
			d := time.Since(t0)
			if traced {
				l.opSpan(node, "read", ts, err != nil)
			}
			if err == nil && !check(q, payload) {
				l.wrongPayloads.Add(1)
			}
			if ph != phaseMeasure {
				continue
			}
			l.attempted.Add(1)
			if err != nil {
				l.failed.Add(1)
				continue
			}
			l.nReads.Add(1)
			done = append(done, sample{at: l.tr.now(), lat: int64(d), n: 1})
		}
	}()
}

// writer runs the open loop: one WriteMulti wave of waveSize signed Puts
// per wavePeriod, each timed from its scheduled send time. A late wave is
// sent at once and its lag recorded; the schedule does not slip.
func (l *load) writer(c *core.Client, node string, rng *rand.Rand) {
	keys := workload.NewKeys(rng, nCatalog)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		next := time.Now()
		for seq := 0; ; seq++ {
			time.Sleep(time.Until(next))
			ph := l.phase.Load()
			if ph == phaseStop {
				return
			}
			ops := make([]store.Op, waveSize)
			for i := range ops {
				v := strconv.AppendInt(nil, int64(seq*waveSize+i), 10)
				ops[i] = store.Put{Key: workload.CatalogKey(keys.Next()), Value: v}
			}
			traced := l.tr.on.Load()
			var ts int64
			if traced {
				ts = l.tr.now()
			}
			lag := time.Since(next)
			versions, err := c.WriteMulti(ops)
			d := time.Since(next)
			if traced {
				l.opSpan(node, "wave", ts, err != nil)
			}
			committed := 0
			for _, v := range versions {
				if v != 0 {
					committed++
				}
			}
			l.mu.Lock()
			l.versions = append(l.versions, versions...)
			if ph == phaseMeasure {
				l.waves = append(l.waves, sample{at: l.tr.now(), lat: int64(d), n: int64(committed)})
				l.waveLag = append(l.waveLag, int64(lag))
			}
			l.mu.Unlock()
			if ph == phaseMeasure {
				l.attempted.Add(waveSize)
				l.failed.Add(int64(waveSize - committed))
				l.nWrites.Add(int64(committed))
			}
			next = next.Add(wavePeriod)
		}
	}()
}

// versionsOK reports whether every returned write version is non-zero and
// distinct, and how many were returned.
func (l *load) versionsOK() (bool, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[uint64]bool, len(l.versions))
	for _, v := range l.versions {
		if v == 0 || seen[v] {
			return false, len(l.versions)
		}
		seen[v] = true
	}
	return true, len(l.versions)
}

// hotReads draws Zipf point reads; the payload must equal the static
// content's value (read-hot has no writes).
func hotReads(rng *rand.Rand, content *store.Store) (func() query.Query, func(query.Query, []byte) bool) {
	keys := workload.NewKeys(rng, nCatalog)
	next := func() query.Query { return query.Get{Key: workload.CatalogKey(keys.Next())} }
	check := func(q query.Query, payload []byte) bool {
		got, ok, err := query.GetResult(payload)
		want, wok := content.Get(q.(query.Get).Key)
		return err == nil && ok == wok && bytes.Equal(got, want)
	}
	return next, check
}

// scanReads draws workload.ScanHeavy queries. Their answers change with
// every commit, so the payload is only checked to decode as the query's
// result type; the auditor re-executes every pledge against its replica.
func scanReads(rng *rand.Rand) (func() query.Query, func(query.Query, []byte) bool) {
	gen := workload.NewGen(rng, workload.ScanHeavy(), nCatalog, nDocs)
	check := func(q query.Query, payload []byte) bool {
		var err error
		switch q.(type) {
		case query.Get:
			_, _, err = query.GetResult(payload)
		case query.Range:
			_, err = query.RangeResult(payload)
		case query.Count:
			_, err = query.CountResult(payload)
		case query.Sum:
			_, err = query.SumResult(payload)
		case query.Grep:
			_, err = query.GrepResult(payload)
		case query.Prefix:
			_, err = query.PrefixResult(payload)
		}
		return err == nil
	}
	return gen.Next, check
}
