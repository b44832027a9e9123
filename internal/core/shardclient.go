package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// Shard-routing errors.
var (
	// ErrNotSharded is returned by the router when the directory serves
	// no shard table for the content.
	ErrNotSharded = errors.New("core: content is not sharded")
	// ErrUnroutableQuery is returned for read queries that span shards;
	// only point reads are routed today.
	ErrUnroutableQuery = errors.New("core: query spans shards (only point reads are routed)")
)

// shardRedirectAttempts bounds the re-resolve/retry loop after
// wrong-shard rejections. Rejection happens at admission — before any
// commit — so a retry can never duplicate a write.
const shardRedirectAttempts = 3

// ShardRouter resolves key -> master group through the directory and
// caches the verified result. Everything the (untrusted) directory
// serves is checked against the content key before it enters the cache:
// the table signature, every certificate signature, and the certificate's
// signed shard id against the table. Invalidate drops the cache so the
// next resolve refetches — the client's reaction to a wrong-shard
// redirect.
type ShardRouter struct {
	dir        DirectoryService
	contentKey cryptoutil.PublicKey

	mu        sync.Mutex
	table     pki.ShardTable               // guarded by mu
	masters   map[uint32][]pki.Certificate // guarded by mu; shard id -> verified master certs
	auditors  map[uint32]pki.Certificate   // guarded by mu; shard id -> verified auditor cert
	valid     bool                         // guarded by mu
	refreshes uint64                       // guarded by mu
}

// NewShardRouter returns a router over the directory for the content.
func NewShardRouter(dir DirectoryService, contentKey cryptoutil.PublicKey) *ShardRouter {
	return &ShardRouter{dir: dir, contentKey: contentKey}
}

// Invalidate drops the cached mapping; the next resolve refetches.
func (r *ShardRouter) Invalidate() {
	r.mu.Lock()
	r.valid = false
	r.mu.Unlock()
}

// Refreshes returns how many directory fetches the router performed.
func (r *ShardRouter) Refreshes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refreshes
}

// Table returns the cached (verified) shard table, resolving if needed.
func (r *ShardRouter) Table() (pki.ShardTable, error) {
	if err := r.ensure(); err != nil {
		return pki.ShardTable{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table, nil
}

// ShardFor resolves the shard owning key.
func (r *ShardRouter) ShardFor(key string) (wire.ShardRef, error) {
	if err := r.ensure(); err != nil {
		return wire.ShardRef{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table.ShardFor(key), nil
}

// MastersFor returns the verified master certificates of one shard.
func (r *ShardRouter) MastersFor(shard uint32) ([]pki.Certificate, error) {
	if err := r.ensure(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	certs := r.masters[shard]
	if len(certs) == 0 {
		return nil, fmt.Errorf("core: shard %d has no verified masters", shard)
	}
	return append([]pki.Certificate(nil), certs...), nil
}

// AuditorFor returns the verified auditor certificate of one shard, if
// one is published.
func (r *ShardRouter) AuditorFor(shard uint32) (pki.Certificate, bool) {
	if err := r.ensure(); err != nil {
		return pki.Certificate{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.auditors[shard]
	return c, ok
}

// ensure fills the cache from the directory if it is empty or was
// invalidated.
func (r *ShardRouter) ensure() error {
	r.mu.Lock()
	if r.valid {
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	return r.refresh()
}

// refresh refetches the shard map and rebuilds the verified cache. The
// directory's answer is untrusted input: the table must verify against
// the content key, each certificate must verify against the content key,
// and a certificate only joins a shard's master set if its signed shard
// id names a range the signed table actually contains.
func (r *ShardRouter) refresh() error {
	table, certs, err := r.dir.ShardMap()
	if err != nil {
		if errors.Is(err, pki.ErrNoShardTable) {
			return ErrNotSharded
		}
		return err
	}
	if err := table.Verify(r.contentKey); err != nil {
		return fmt.Errorf("core: shard table rejected: %w", err)
	}
	known := make(map[uint32]bool, len(table.Shards))
	for _, s := range table.Shards {
		known[s.ID] = true
	}
	masters := make(map[uint32][]pki.Certificate)
	auditors := make(map[uint32]pki.Certificate)
	for _, c := range certs {
		c := c
		// Only owner-issued roles are routable; anything that does not
		// verify against the content key is dropped, exactly as
		// pki.Directory.VerifiedMasters drops unverifiable masters.
		if c.Verify(r.contentKey) != nil || !known[c.Shard] {
			continue
		}
		switch c.Role {
		case pki.RoleMaster:
			masters[c.Shard] = append(masters[c.Shard], c)
		case pki.RoleAuditor:
			auditors[c.Shard] = c
		}
	}
	r.mu.Lock()
	r.table = table
	r.masters = masters
	r.auditors = auditors
	r.valid = true
	r.refreshes++
	r.mu.Unlock()
	return nil
}

// shardDirView exposes one shard's slice of the directory as a
// DirectoryService, so an ordinary Client set up against it discovers
// only that group's masters. Reads go through the router's verified
// cache; writes pass through to the real directory.
type shardDirView struct {
	router *ShardRouter
	shard  uint32
	dir    DirectoryService
}

func (v shardDirView) VerifiedMasters() ([]pki.Certificate, error) {
	return v.router.MastersFor(v.shard)
}

func (v shardDirView) ShardMap() (pki.ShardTable, []pki.Certificate, error) {
	return v.dir.ShardMap()
}

func (v shardDirView) Publish(cert pki.Certificate) error    { return v.dir.Publish(cert) }
func (v shardDirView) Withdraw(s cryptoutil.PublicKey) error { return v.dir.Withdraw(s) }
func (v shardDirView) RecordExclusion(e pki.Exclusion) error { return v.dir.RecordExclusion(e) }
func (v shardDirView) IsExcluded(s cryptoutil.PublicKey) (bool, error) {
	return v.dir.IsExcluded(s)
}
func (v shardDirView) ClearExclusion(s cryptoutil.PublicKey) error { return v.dir.ClearExclusion(s) }

// ShardedStats counts the sharded client's routing activity.
type ShardedStats struct {
	Redirects uint64 // wrong-shard rejections that forced a re-resolve
	Routed    uint64 // writes routed by the cached table
}

// ShardedClient routes writes and point reads across a sharded
// deployment: it resolves key -> shard through a ShardRouter, keeps one
// ordinary Client per shard (each set up against only that group's
// verified masters), and on a wrong-shard rejection invalidates the
// cached mapping, re-resolves, and retries — the redirect protocol for
// stale tables after a range move. All per-shard protocol machinery
// (pledge verification, double-checks, auditor forwarding) is the
// unchanged Client.
type ShardedClient struct {
	cfg    ClientConfig
	rt     sim.Runtime
	dlr    rpc.Dialer
	router *ShardRouter

	mu    sync.Mutex
	subs  map[uint32]*Client // guarded by mu; shard id -> per-group client
	stats ShardedStats       // guarded by mu
}

// NewShardedClient creates a sharded client; call Setup before use.
func NewShardedClient(cfg ClientConfig, rt sim.Runtime, dlr rpc.Dialer) *ShardedClient {
	return &ShardedClient{
		cfg:    cfg,
		rt:     rt,
		dlr:    dlr,
		router: NewShardRouter(cfg.Directory, cfg.ContentKey),
		subs:   make(map[uint32]*Client),
	}
}

// Router exposes the underlying shard router (tests, diagnostics).
func (sc *ShardedClient) Router() *ShardRouter { return sc.router }

// Setup resolves and verifies the shard map. Per-shard clients are set
// up lazily on first use, so a client that only ever touches two shards
// pays setup for two groups, not all of them.
func (sc *ShardedClient) Setup() error {
	sc.router.Invalidate()
	_, err := sc.router.Table()
	return err
}

// Stats returns routing counters plus the aggregated per-shard client
// counters.
func (sc *ShardedClient) Stats() (ShardedStats, ClientStats) {
	sc.mu.Lock()
	st := sc.stats
	subs := make([]*Client, 0, len(sc.subs))
	for _, c := range sc.subs {
		subs = append(subs, c)
	}
	sc.mu.Unlock()
	var cs ClientStats
	for _, c := range subs {
		s := c.Stats()
		cs.ReadsAccepted += s.ReadsAccepted
		cs.ReadsFailed += s.ReadsFailed
		cs.WritesOK += s.WritesOK
		cs.WritesFailed += s.WritesFailed
		cs.Retries += s.Retries
		cs.DoubleChecks += s.DoubleChecks
		cs.PledgesSent += s.PledgesSent
		cs.StampCacheHits += s.StampCacheHits
		cs.StampCacheMisses += s.StampCacheMisses
		cs.PledgeCacheHits += s.PledgeCacheHits
		cs.PledgeCacheMisses += s.PledgeCacheMisses
	}
	return st, cs
}

// clientFor returns (creating and setting up if needed) the client for
// the shard owning key.
func (sc *ShardedClient) clientFor(key string) (*Client, wire.ShardRef, error) {
	ref, err := sc.router.ShardFor(key)
	if err != nil {
		return nil, wire.ShardRef{}, err
	}
	cl, err := sc.clientForShard(ref.ID)
	return cl, ref, err
}

func (sc *ShardedClient) clientForShard(id uint32) (*Client, error) {
	sc.mu.Lock()
	if cl, ok := sc.subs[id]; ok {
		sc.mu.Unlock()
		return cl, nil
	}
	sc.mu.Unlock()

	cfg := sc.cfg
	cfg.Directory = shardDirView{router: sc.router, shard: id, dir: sc.cfg.Directory}
	if aud, ok := sc.router.AuditorFor(id); ok {
		cfg.AuditorAddr = aud.Addr
	}
	cfg.Seed = sc.cfg.Seed*37 + int64(id)
	cl := NewClient(cfg, sc.rt, sc.dlr)
	if err := cl.Setup(); err != nil {
		return nil, fmt.Errorf("core: shard %d client setup: %w", id, err)
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if existing, ok := sc.subs[id]; ok {
		// Another goroutine set the shard up concurrently; use its client.
		return existing, nil
	}
	sc.subs[id] = cl
	return cl, nil
}

func (sc *ShardedClient) noteRedirect() {
	sc.mu.Lock()
	sc.stats.Redirects++
	sc.mu.Unlock()
}

func (sc *ShardedClient) noteRouted(n uint64) {
	sc.mu.Lock()
	sc.stats.Routed += n
	sc.mu.Unlock()
}

// Write routes op to the shard owning its key and submits it. On a
// wrong-shard rejection — the table was stale — it invalidates the
// cached mapping, re-resolves, and retries; rejection happens at master
// admission, before any commit, so the retry cannot duplicate the write.
func (sc *ShardedClient) Write(op store.Op) (uint64, error) {
	key := store.KeyOf(op)
	var lastErr error
	for attempt := 0; attempt < shardRedirectAttempts; attempt++ {
		cl, _, err := sc.clientFor(key)
		if err != nil {
			return 0, err
		}
		sc.noteRouted(1)
		v, err := cl.Write(op)
		if err == nil {
			return v, nil
		}
		if !IsWrongShard(err) {
			return 0, err
		}
		lastErr = err
		sc.noteRedirect()
		sc.router.Invalidate()
	}
	return 0, fmt.Errorf("core: write for %q still misrouted after %d redirects: %w",
		key, shardRedirectAttempts, lastErr)
}

// WriteMulti splits the wave by owning shard (preserving per-shard
// submission order), ships one WriteMulti RPC per shard, and stitches
// the assigned versions back into submission order. A group whose wave
// is rejected wrong-shard is re-resolved and re-sent whole: masters
// admit a wave atomically before enqueueing any of it, so the rejected
// wave committed nothing and the retry cannot duplicate writes.
func (sc *ShardedClient) WriteMulti(ops []store.Op) ([]uint64, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	versions := make([]uint64, len(ops))
	remaining := make([]int, len(ops))
	for i := range ops {
		remaining[i] = i
	}
	var lastErr error
	for attempt := 0; attempt < shardRedirectAttempts && len(remaining) > 0; attempt++ {
		// Route the remaining ops. Iterate groups in shard-id order so the
		// simulator's schedule stays deterministic.
		groups := make(map[uint32][]int)
		for _, idx := range remaining {
			ref, err := sc.router.ShardFor(store.KeyOf(ops[idx]))
			if err != nil {
				return nil, err
			}
			groups[ref.ID] = append(groups[ref.ID], idx)
		}
		ids := make([]uint32, 0, len(groups))
		for id := range groups {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })

		var redirected []int
		for _, id := range ids {
			idxs := groups[id]
			cl, err := sc.clientForShard(id)
			if err != nil {
				return nil, err
			}
			wave := make([]store.Op, len(idxs))
			for j, idx := range idxs {
				wave[j] = ops[idx]
			}
			sc.noteRouted(uint64(len(wave)))
			vs, err := cl.WriteMulti(wave)
			if err != nil && IsWrongShard(err) {
				lastErr = err
				sc.noteRedirect()
				sc.router.Invalidate()
				redirected = append(redirected, idxs...)
				continue
			}
			for j := 0; j < len(vs) && j < len(idxs); j++ {
				versions[idxs[j]] = vs[j]
			}
			if err != nil {
				return versions, err
			}
		}
		remaining = redirected
	}
	if len(remaining) > 0 {
		return versions, fmt.Errorf("core: %d wave writes still misrouted after %d redirects: %w",
			len(remaining), shardRedirectAttempts, lastErr)
	}
	return versions, nil
}

// Read executes a point read on the shard owning the key, with the full
// untrusted-read protocol of the per-shard client. Wrong-shard redirects
// do not arise on reads (slaves serve whatever their group replicates);
// a stale table simply reads from a group that answers "no such key",
// which the freshness-checked protocol reports faithfully — so Read
// re-resolves only when the routed shard has no client yet. Queries that
// span shards are rejected with ErrUnroutableQuery.
func (sc *ShardedClient) Read(q query.Query) ([]byte, error) {
	g, ok := q.(query.Get)
	if !ok {
		return nil, ErrUnroutableQuery
	}
	cl, _, err := sc.clientFor(g.Key)
	if err != nil {
		return nil, err
	}
	return cl.Read(q)
}

// Handle fans master notifications out to the per-shard clients: only
// the client whose master signed the embedded certificate accepts it.
func (sc *ShardedClient) Handle(from, method string, body []byte) ([]byte, error) {
	sc.mu.Lock()
	ids := make([]uint32, 0, len(sc.subs))
	for id := range sc.subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	subs := make([]*Client, len(ids))
	for i, id := range ids {
		subs[i] = sc.subs[id]
	}
	sc.mu.Unlock()
	var lastErr error = fmt.Errorf("core: sharded client has no shard clients yet")
	for _, cl := range subs {
		if resp, err := cl.Handle(from, method, body); err == nil {
			return resp, nil
		} else {
			lastErr = err
		}
	}
	return nil, lastErr
}
