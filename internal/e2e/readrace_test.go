package e2e

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// addReader builds and sets up an extra client on d with its own key,
// listener and parameters (each reader goroutine needs its own client:
// a Client's double-check coin is not safe for concurrent reads).
func addReader(t *testing.T, d *deployment, i int, params core.Params) *core.Client {
	t.Helper()
	addr := reserveAddr(t)
	c := core.NewClient(core.ClientConfig{
		Addr: addr, Keys: cryptoutil.DeriveKeyPair("reader", i), Params: params,
		ContentKey: d.owner.Public, Directory: d.dir,
		AuditorAddr: d.auditor.Addr(), PreferredMaster: 0, Seed: int64(100 + i),
	}, sim.RealClock{}, d.dialer)
	srv, err := rpc.ListenTCP(addr, c.Handle)
	if err != nil {
		t.Fatal(err)
	}
	d.servers = append(d.servers, srv)
	if err := c.Setup(); err != nil {
		t.Fatalf("reader %d setup: %v", i, err)
	}
	return c
}

// TestTCPScanReadsBesideWriteWavesRace is the regression test for the
// slave's read/update race. Scan reads (a Count over the whole store,
// whose answer changes with every wave of new keys) run on several
// clients while WriteMulti waves commit over TCP, under the race
// detector. A slave that checked its stamp against the replica version
// in one critical section and ran the query in another could answer at
// version v+n while pledging version v; the auditor, re-executing at v,
// would then convict an honest slave. Every pledge must survive the
// audit: zero mismatches and zero exclusions.
func TestTCPScanReadsBesideWriteWavesRace(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const (
		preload = 64 // waves written before the readers start
		waves   = 40 // waves written beside the readers
		wave    = 64
		readers = 8
	)
	d := deployWith(t, 1, nil, func(p *core.Params) {
		p.MaxLatency = 400 * time.Millisecond
		p.AuditorSlack = 100 * time.Millisecond
	}, func(cfg *core.MasterConfig) {
		cfg.BatchSize = wave
		cfg.BatchTimeout = 5 * time.Millisecond
		// Pacing is per batched commit; keep it tight so waves land
		// every few milliseconds while the scans run.
		cfg.Params.MaxLatency = 10 * time.Millisecond
	})
	defer d.close()

	next := 0
	writeWave := func() {
		ops := make([]store.Op, wave)
		for j := range ops {
			ops[j] = store.Put{Key: workload.CatalogKey(next), Value: []byte{byte(next)}}
			next++
		}
		if _, err := d.client.WriteMulti(ops); err != nil {
			t.Fatalf("wave at key %d: %v", next, err)
		}
	}
	// A store of a few thousand keys makes each scan hold the slave's
	// lock long enough for updates to queue behind it.
	for i := 0; i < preload; i++ {
		writeWave()
	}

	params := d.params
	params.DoubleCheckP = 0 // every accepted read reaches the auditor
	clients := make([]*core.Client, readers)
	for i := range clients {
		clients[i] = addReader(t, d, i, params)
	}
	var (
		stop     atomic.Bool
		accepted atomic.Int64
		wg       sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := c.Read(query.Count{P: ""}); err == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	for i := 0; i < waves; i++ {
		writeWave()
	}
	stop.Store(true)
	wg.Wait()
	if accepted.Load() == 0 {
		t.Fatal("no scan read was accepted beside the write waves")
	}

	// The auditor lags the masters by max_latency plus slack; wait for it
	// to reach the final version with every pledge audited.
	want := d.master.Version()
	deadline := time.Now().Add(20 * time.Second)
	for d.auditor.Version() < want || d.auditor.Backlog() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auditor at version %d (backlog %d), want %d", d.auditor.Version(), d.auditor.Backlog(), want)
		}
		time.Sleep(50 * time.Millisecond)
	}
	ast := d.auditor.Stats()
	if ast.Mismatches != 0 || ast.ReportsSent != 0 {
		t.Errorf("auditor convicted an honest slave: %d mismatches, %d reports (%d pledges audited)",
			ast.Mismatches, ast.ReportsSent, ast.PledgesAudited)
	}
	if ex := d.master.Stats().Exclusions; ex != 0 {
		t.Errorf("%d honest slaves excluded", ex)
	}
	if ast.PledgesAudited == 0 {
		t.Error("auditor audited no pledge")
	}
	t.Logf("%d scan reads accepted, %d pledges audited, master at version %d", accepted.Load(), ast.PledgesAudited, want)
}
