package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dirsrv"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Content shape shared by every workload: workload.BuildContent(2000, 20).
const (
	nCatalog = 2000
	nDocs    = 20
)

// callBound caps a Dialer.Call, which the protocol issues without a
// timeout (writes waiting for commit). A commit that takes this long is a
// failure, not a slow sample, and the bound keeps a stuck run from
// hanging past the benchmark's own deadline.
const callBound = 20 * time.Second

var errNotBound = errors.New("loopbench: endpoint has no handler yet")

// endpoint is a node's TCP listener. It listens on 127.0.0.1:0 before the
// node exists, so the node is built with its final address, and serves
// the node's handler once bind is called: no port is reserved, closed and
// re-bound.
type endpoint struct {
	name string
	srv  *rpc.TCPServer
	h    atomic.Pointer[rpc.Handler]
	tr   *tracer
}

func listen(name string, tr *tracer) (*endpoint, error) {
	e := &endpoint{name: name, tr: tr}
	srv, err := rpc.ListenTCP("127.0.0.1:0", e.handle)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", name, err)
	}
	e.srv = srv
	return e, nil
}

func (e *endpoint) addr() string { return e.srv.Addr() }

func (e *endpoint) bind(h rpc.Handler) { e.h.Store(&h) }

func (e *endpoint) handle(from, method string, body []byte) ([]byte, error) {
	h := e.h.Load()
	if h == nil {
		return nil, errNotBound
	}
	if !e.tr.on.Load() {
		return (*h)(from, method, body)
	}
	start := e.tr.now()
	resp, err := (*h)(from, method, body)
	e.tr.add(kindHandle, e.name, "", method, start, 0, err != nil)
	return resp, err
}

// nodeDialer is one node's outbound connection cache. It bounds Call,
// records caller-side spans while tracing is on, and refuses every call
// once closed, so a stopped node's leftover goroutines cannot reach a
// later deployment that happens to reuse its ports.
type nodeDialer struct {
	name   string
	inner  *rpc.TCPDialer
	tr     *tracer
	closed atomic.Bool
}

func (d *nodeDialer) Call(addr, method string, body []byte) ([]byte, error) {
	return d.CallTimeout(addr, method, body, callBound)
}

func (d *nodeDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	if d.closed.Load() {
		return nil, rpc.ErrClosed
	}
	if timeout <= 0 {
		timeout = callBound
	}
	if !d.tr.on.Load() {
		return d.inner.CallTimeout(addr, method, body, timeout)
	}
	start := d.tr.now()
	resp, err := d.inner.CallTimeout(addr, method, body, timeout)
	d.tr.add(kindCall, d.name, addr, method, start, len(body)+len(resp), err != nil)
	return resp, err
}

func (d *nodeDialer) close() {
	d.closed.Store(true)
	d.inner.Close()
}

// deployment is the full loopback fleet: a directory, two durable
// masters (m0 sequences), the auditor as the last broadcast member, two
// honest slaves under m0, and the benchmark's clients.
type deployment struct {
	dataDir string
	params  core.Params

	eps     []*endpoint
	dialers []*nodeDialer
	names   map[string]string // listener address -> node name

	masters []*core.Master
	auditor *core.Auditor
	slaves  []*core.Slave
	clients []*core.Client
	closed  bool
}

func benchParams() core.Params {
	p := core.DefaultParams()
	p.MaxLatency = 100 * time.Millisecond
	p.KeepAliveEvery = 25 * time.Millisecond
	return p
}

// deploy builds and starts the fleet with nClients clients (not yet set
// up). On error everything built so far is torn down.
func deploy(workdir string, nClients int, content *store.Store, tr *tracer) (d *deployment, err error) {
	d = &deployment{params: benchParams(), names: make(map[string]string)}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if d.dataDir, err = os.MkdirTemp(workdir, "data-"); err != nil {
		return d, fmt.Errorf("data dir: %w", err)
	}
	ep := func(name string) (*endpoint, error) {
		e, err := listen(name, tr)
		if err != nil {
			return nil, err
		}
		d.eps = append(d.eps, e)
		d.names[e.addr()] = name
		return e, nil
	}
	dialer := func(name string) rpc.Dialer {
		nd := &nodeDialer{name: name, inner: rpc.NewTCPDialer(), tr: tr}
		d.dialers = append(d.dialers, nd)
		return nd
	}
	names := []string{"dir", "m0", "m1", "aud", "s0", "s1"}
	for i := 0; i < nClients; i++ {
		names = append(names, fmt.Sprintf("c%d", i))
	}
	eps := make(map[string]*endpoint, len(names))
	for _, n := range names {
		if eps[n], err = ep(n); err != nil {
			return d, err
		}
	}

	owner := cryptoutil.DeriveKeyPair("owner", 0)
	dirServer := dirsrv.NewServer(owner.Public)
	eps["dir"].bind(dirServer.Handle)
	dirFor := func(name string) *dirsrv.Client {
		return &dirsrv.Client{Addr: eps["dir"].addr(), Dialer: dialer(name)}
	}

	peers := []string{eps["m0"].addr(), eps["m1"].addr(), eps["aud"].addr()}
	auditorKeys := cryptoutil.DeriveKeyPair("auditor", 0)
	masterKeys := []*cryptoutil.KeyPair{cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("master", 1)}
	masterPubs := []cryptoutil.PublicKey{masterKeys[0].Public, masterKeys[1].Public}
	acl := core.NewACL()
	rt := sim.RealClock{}
	publisher := dirFor("owner")

	for i, keys := range masterKeys {
		name := fmt.Sprintf("m%d", i)
		addr := eps[name].addr()
		m, err := core.NewMaster(core.MasterConfig{
			Addr: addr, Keys: keys, Params: d.params,
			ContentKey: owner.Public, Peers: peers,
			AuditorAddr: eps["aud"].addr(), AuditorPub: auditorKeys.Public,
			ACL: acl, Directory: dirFor(name), Seed: int64(i),
			BatchSize: 64, BatchAdaptive: true,
			CheckpointEvery: 500 * time.Millisecond,
			DataDir:         filepath.Join(d.dataDir, name),
		}, rt, dialer(name), content)
		if err != nil {
			return d, fmt.Errorf("master %s: %w", name, err)
		}
		d.masters = append(d.masters, m)
		eps[name].bind(m.Handle)
		cert := pki.Certificate{Role: pki.RoleMaster, Addr: addr, Subject: keys.Public, IssuedAt: rt.Now(), Serial: uint64(i)}
		cert.Sign(owner)
		if err := publisher.Publish(cert); err != nil {
			return d, fmt.Errorf("publish %s: %w", name, err)
		}
	}

	d.auditor, err = core.NewAuditor(core.AuditorConfig{
		Addr: eps["aud"].addr(), Keys: auditorKeys, Params: d.params,
		Peers: peers, MasterAddrs: peers[:2], MasterPubs: masterPubs, Seed: 3,
	}, rt, dialer("aud"), content)
	if err != nil {
		return d, fmt.Errorf("auditor: %w", err)
	}
	eps["aud"].bind(d.auditor.Handle)

	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		keys := cryptoutil.DeriveKeyPair("slave", i)
		sl := core.NewSlave(core.SlaveConfig{
			Addr: eps[name].addr(), Keys: keys, Params: d.params,
			MasterAddr: eps["m0"].addr(), MasterPubs: masterPubs,
			Behavior: core.Honest{}, Seed: int64(10 + i),
		}, rt, dialer(name), content)
		d.slaves = append(d.slaves, sl)
		eps[name].bind(sl.Handle)
		d.masters[0].AddSlave(eps[name].addr(), keys.Public)
	}

	for _, m := range d.masters {
		m.Start()
	}
	d.auditor.Start()

	for i := 0; i < nClients; i++ {
		name := fmt.Sprintf("c%d", i)
		keys := cryptoutil.DeriveKeyPair("client", i)
		acl.Allow(keys.Public)
		c := core.NewClient(core.ClientConfig{
			Addr: eps[name].addr(), Keys: keys, Params: d.params,
			ContentKey: owner.Public, Directory: dirFor(name),
			AuditorAddr: eps["aud"].addr(), PreferredMaster: 0, Seed: int64(100 + i),
		}, rt, dialer(name))
		d.clients = append(d.clients, c)
		eps[name].bind(c.Handle)
	}
	return d, nil
}

// firstRead sets up client 0 and retries a verified point read until one
// is accepted: the end of set-up. Setup is retried only until it
// succeeds once, so slave assignment stays round-robin from slave 0.
func (d *deployment) firstRead(deadline time.Time) error {
	c := d.clients[0]
	err := c.Setup()
	for err != nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		err = c.Setup()
	}
	if err != nil {
		return fmt.Errorf("client c0 setup did not succeed before the set-up deadline: %w", err)
	}
	// Read once the assigned slave holds a stamp (its first keep-alive),
	// so set-up time tracks the fleet becoming ready rather than the
	// client's fixed back-off after a stale refusal.
	for _, s := range d.slaves {
		if s.Addr() != c.SlaveAddr() {
			continue
		}
		for s.Stats().KeepAlives == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	err = errors.New("deadline passed waiting for the slave's first keep-alive")
	for time.Now().Before(deadline) {
		if _, err = c.Read(query.Get{Key: workload.CatalogKey(0)}); err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("no verified read accepted before the set-up deadline: %w", err)
}

// setupClients sets up clients 1.. and checks that the first readers
// clients read from distinct slaves.
func (d *deployment) setupClients(readers int) error {
	seen := make(map[string]bool)
	for i, c := range d.clients {
		if i > 0 {
			if err := c.Setup(); err != nil {
				return fmt.Errorf("client c%d setup: %w", i, err)
			}
		}
		if i < readers {
			if seen[c.SlaveAddr()] {
				return fmt.Errorf("reader c%d shares slave %s with another reader", i, d.names[c.SlaveAddr()])
			}
			seen[c.SlaveAddr()] = true
		}
	}
	return nil
}

// close stops every node, closes every dialer and listener, and removes
// the data directory. Later calls do nothing.
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, m := range d.masters {
		m.Stop()
	}
	if d.auditor != nil {
		d.auditor.Stop()
	}
	for _, nd := range d.dialers {
		nd.close()
	}
	for _, e := range d.eps {
		e.srv.Close()
	}
	if d.dataDir != "" {
		removeDir(d.dataDir)
	}
}

// removeDir removes dir, retrying for up to a second: a stopped master's
// last loop iteration can still be writing a snapshot file into it.
func removeDir(dir string) {
	for i := 0; i < 20; i++ {
		if os.RemoveAll(dir) == nil {
			if _, err := os.Stat(dir); os.IsNotExist(err) {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// nodeVersions reports every replica's content version.
type nodeVersions struct {
	masters, slaves []uint64
	auditor         uint64
	backlog         int
}

func (d *deployment) versions() nodeVersions {
	var v nodeVersions
	for _, m := range d.masters {
		v.masters = append(v.masters, m.Version())
	}
	for _, s := range d.slaves {
		v.slaves = append(v.slaves, s.Version())
	}
	v.auditor = d.auditor.Version()
	v.backlog = d.auditor.Backlog()
	return v
}

func (v nodeVersions) converged() bool {
	want := v.masters[0]
	for _, x := range slices.Concat(v.masters, v.slaves) {
		if x != want {
			return false
		}
	}
	return v.auditor == want && v.backlog == 0
}

func (v nodeVersions) String() string {
	return fmt.Sprintf("masters=%v slaves=%v auditor=%d backlog=%d", v.masters, v.slaves, v.auditor, v.backlog)
}

// quiesce waits, up to deadline, until every master, slave and the
// auditor hold the same version and the auditor's backlog is empty.
func (d *deployment) quiesce(deadline time.Time) (nodeVersions, bool) {
	for {
		v := d.versions()
		if v.converged() {
			return v, true
		}
		if time.Now().After(deadline) {
			return v, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// digestsAgree reports whether every master and slave holds the same
// state digest. The auditor exposes only its version, which quiesce
// compares.
func (d *deployment) digestsAgree() bool {
	want := d.masters[0].StateDigest()
	for _, m := range d.masters[1:] {
		if !m.StateDigest().Equal(want) {
			return false
		}
	}
	for _, s := range d.slaves {
		if !s.StateDigest().Equal(want) {
			return false
		}
	}
	return true
}

// dataDirBytes is the total size of the regular files under the data
// directory (both masters' WAL and snapshot files).
func (d *deployment) dataDirBytes() int64 {
	var n int64
	filepath.WalkDir(d.dataDir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// counters is one snapshot of every node's public Stats.
type counters struct {
	masters []core.MasterStats
	slaves  []core.SlaveStats
	clients []core.ClientStats
	auditor core.AuditorStats
}

func (d *deployment) counters() counters {
	var c counters
	for _, m := range d.masters {
		c.masters = append(c.masters, m.Stats())
	}
	for _, s := range d.slaves {
		c.slaves = append(c.slaves, s.Stats())
	}
	for _, cl := range d.clients {
		c.clients = append(c.clients, cl.Stats())
	}
	c.auditor = d.auditor.Stats()
	return c
}

// sampler polls the auditor backlog and the data directory size while
// tracing: the largest backlog seen and the bytes the data directory grew
// by, summed over positive steps (checkpoint truncation shrinks it).
type sampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	backlog  int
	dirGrown int64
}

func startSampler(d *deployment, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		last := d.dataDirBytes()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			if b := d.auditor.Backlog(); b > s.backlog {
				s.backlog = b
			}
			n := d.dataDirBytes()
			if n > last {
				s.dirGrown += n - last
			}
			last = n
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}
