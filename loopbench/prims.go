package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/merkle"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// timeEach runs fn n times and returns the median duration of one call.
func timeEach(n int, fn func(i int) error) (int64, error) {
	ds := make([]int64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = int64(time.Since(t0))
	}
	return quantile(ds, 0.5), nil
}

// primitives times the public functions behind the traced spans, on
// fixed inputs drawn from the benchmark content and seed, with the
// deployment already torn down.
func primitives(workdir string, seed int64, content *store.Store, out metricSet) error {
	rng := rand.New(rand.NewSource(seed))
	keys := workload.NewKeys(rng, nCatalog)
	master := cryptoutil.DeriveKeyPair("master", 0)
	pubs := []cryptoutil.PublicKey{master.Public}
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	now := time.Now()

	type prim struct {
		name string
		n    int
		fn   func(i int) error
	}
	var prims []prim

	getKeys := make([]string, 64)
	for i := range getKeys {
		getKeys[i] = workload.CatalogKey(keys.Next())
	}
	getQ := query.Encode(query.Get{Key: getKeys[0]})
	res, err := query.Get{Key: getKeys[0]}.Execute(content)
	if err != nil {
		return err
	}
	stamp := core.SignStamp(master, content.Version(), now)
	pledge := core.SignPledge(slave, getQ, res.Digest(), stamp)
	prims = append(prims,
		prim{"core.pledge_sign_us", 300, func(int) error {
			core.SignPledge(slave, getQ, res.Digest(), stamp)
			return nil
		}},
		prim{"core.pledge_verify_us", 300, func(int) error { return pledge.VerifySig() }},
	)

	first := content.Version() + 1
	ops := make([][]byte, waveSize)
	for i := range ops {
		ops[i] = store.EncodeOp(store.Put{Key: getKeys[i], Value: strconv.AppendInt(nil, int64(i), 10)})
	}
	buildBatch := func() (core.BatchUpdate, error) {
		tree := core.BatchTree(first, ops)
		bu := core.BatchUpdate{First: first, Ops: ops, Proofs: make([]merkle.Proof, len(ops))}
		bu.Stamp = core.SignBatchStamp(master, first+uint64(len(ops))-1, now, tree.Root())
		for i := range ops {
			p, err := tree.Prove(i)
			if err != nil {
				return bu, err
			}
			bu.Proofs[i] = p
		}
		return bu, nil
	}
	batch, err := buildBatch()
	if err != nil {
		return err
	}
	prims = append(prims,
		prim{"core.batch64_build_us", 60, func(int) error { _, err := buildBatch(); return err }},
		prim{"core.batch64_verify_us", 60, func(int) error { return batch.Verify(pubs) }},
	)

	lo := keys.Next()
	queries := []struct {
		name string
		n    int
		q    query.Query
	}{
		{"query.get_us", 2000, query.Get{Key: getKeys[1]}},
		{"query.range_us", 1000, query.Range{From: workload.CatalogKey(lo), To: workload.CatalogKey(lo + 10), Limit: 10}},
		{"query.count_us", 200, query.Count{P: "catalog/"}},
		{"query.sum_us", 200, query.Sum{P: "catalog/"}},
		{"query.grep_us", 300, query.Grep{Pattern: "price", PathPrefix: "docs/"}},
	}
	for _, q := range queries {
		q := q
		prims = append(prims, prim{q.name, q.n, func(int) error { _, err := q.q.Execute(content); return err }})
	}

	replica := content.Clone()
	prims = append(prims, prim{"store.apply_us", 2000, func(i int) error {
		return replica.Apply(store.Put{Key: getKeys[i%len(getKeys)], Value: strconv.AppendInt(nil, int64(i), 10)})
	}})

	walDir, err := os.MkdirTemp(workdir, "prim-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	log, _, err := wal.Open(filepath.Join(walDir, "wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	record := wire.EncodeFrame(func(w *wire.Writer) {
		w.BytesSlice(ops)
		batch.Stamp.Encode(w)
	})
	prims = append(prims, prim{"wal.append_sync_us", 40, func(int) error {
		if err := log.Append(record); err != nil {
			return err
		}
		return log.Sync()
	}})

	echo, err := rpc.ListenTCP("127.0.0.1:0", func(string, string, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		return err
	}
	defer echo.Close()
	dialer := rpc.NewTCPDialer()
	defer dialer.Close()
	if _, err := dialer.CallTimeout(echo.Addr(), "echo", nil, time.Second); err != nil {
		return err
	}
	prims = append(prims, prim{"rpc.echo_rtt_us", 1000, func(int) error {
		_, err := dialer.CallTimeout(echo.Addr(), "echo", nil, time.Second)
		return err
	}})

	for _, p := range prims {
		d, err := timeEach(p.n, p.fn)
		if err != nil {
			return fmt.Errorf("primitive %s: %w", p.name, err)
		}
		out.add(p.name, usOf(d), "us")
	}
	return nil
}
