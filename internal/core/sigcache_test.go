package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/wire"
)

// len returns the number of cached entries.
func (c *sigCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// honestPledge returns a pledge by slave over a Get on "k" at stamp.
func honestPledge(slave *cryptoutil.KeyPair, stamp VersionStamp) Pledge {
	return SignPledge(slave, query.Encode(query.Get{Key: "k"}), cryptoutil.HashBytes([]byte("v")), stamp)
}

// clonePledge deep-copies the pledge's byte fields so a mutation cannot
// reach the original (or the cache's record of it).
func clonePledge(p Pledge) Pledge {
	p.QueryBytes = bytes.Clone(p.QueryBytes)
	p.SlavePub = bytes.Clone(p.SlavePub)
	p.Sig = bytes.Clone(p.Sig)
	p.Stamp.Sig = bytes.Clone(p.Stamp.Sig)
	p.Stamp.MasterPub = bytes.Clone(p.Stamp.MasterPub)
	return p
}

func TestPledgeCacheMissesAndRejectsAlteredPledges(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	other := cryptoutil.DeriveKeyPair("slave", 1)
	p := honestPledge(slave, SignStamp(master, 7, time.Unix(100, 0)))

	c := newSigCache(pledgeCacheSize)
	if hit, err := c.verifyPledge(&p); hit || err != nil {
		t.Fatalf("first verification: hit=%v err=%v", hit, err)
	}
	if hit, err := c.verifyPledge(&p); !hit || err != nil {
		t.Fatalf("exact repeat: hit=%v err=%v, want a hit", hit, err)
	}

	variants := map[string]func(*Pledge){
		"result hash": func(q *Pledge) { q.ResultHash[0] ^= 1 },
		"query bytes": func(q *Pledge) { q.QueryBytes = query.Encode(query.Get{Key: "other"}) },
		"slave key":   func(q *Pledge) { q.SlavePub = other.Public },
		"stamp":       func(q *Pledge) { q.Stamp.Version++ },
	}
	for bit := 0; bit < 8*len(p.Sig); bit++ {
		bit := bit
		variants[fmt.Sprintf("signature bit %d", bit)] = func(q *Pledge) { q.Sig[bit/8] ^= 1 << (bit % 8) }
	}
	for name, mutate := range variants {
		q := clonePledge(p)
		mutate(&q)
		hit, err := c.verifyPledge(&q)
		if hit {
			t.Errorf("%s altered: cache hit", name)
		}
		if !errors.Is(err, ErrBadPledge) {
			t.Errorf("%s altered: err = %v, want ErrBadPledge", name, err)
		}
	}
	// The rejections left the honest entry intact and added nothing.
	if hit, err := c.verifyPledge(&p); !hit || err != nil {
		t.Fatalf("honest pledge after rejections: hit=%v err=%v", hit, err)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1 (only positive verdicts are cached)", n)
	}
}

func TestStampCacheMissesAndRejectsAlteredStamps(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	evil := cryptoutil.DeriveKeyPair("master", 9)
	trusted := []cryptoutil.PublicKey{master.Public}
	v := SignStamp(master, 7, time.Unix(100, 0))
	c := newSigCache(stampCacheSize)
	if hit, err := c.verifyStamp(&v, trusted); hit || err != nil {
		t.Fatalf("first verification: hit=%v err=%v", hit, err)
	}
	if hit, err := c.verifyStamp(&v, trusted); !hit || err != nil {
		t.Fatalf("exact repeat: hit=%v err=%v", hit, err)
	}
	for name, mutate := range map[string]func(*VersionStamp){
		"signature": func(s *VersionStamp) { s.Sig[5] ^= 0x10 },
		"version":   func(s *VersionStamp) { s.Version++ },
		"timestamp": func(s *VersionStamp) { s.Timestamp = s.Timestamp.Add(time.Second) },
		"kind":      func(s *VersionStamp) { s.Kind = stampKindBatch },
		"master":    func(s *VersionStamp) { *s = SignStamp(evil, s.Version, s.Timestamp) },
	} {
		s := v
		s.Sig = bytes.Clone(v.Sig)
		mutate(&s)
		if hit, err := c.verifyStamp(&s, trusted); hit || !errors.Is(err, ErrBadStamp) {
			t.Errorf("%s altered: hit=%v err=%v", name, hit, err)
		}
	}
}

// TestClientVerifyReplyRejectsAfterCaching checks that caching a
// verified pledge weakens none of the client's checks: once an honest
// reply is cached, every reply rejected before the cache existed is
// still rejected, and the exact honest reply is rejected once stale.
func TestClientVerifyReplyRejectsAfterCaching(t *testing.T) {
	s := sim.New(1)
	clock := sim.NewSkewedRuntime(s)
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	other := cryptoutil.DeriveKeyPair("slave", 1)
	c := NewClient(ClientConfig{Params: DefaultParams()}, clock, nil)
	c.masterPubs = []cryptoutil.PublicKey{master.Public}
	sl := slaveAssignment{addr: "slave", pub: slave.Public}
	qb := query.Encode(query.Get{Key: "k"})
	stamp := SignStamp(master, 1, s.Now())
	honest := ReadReply{Payload: []byte("v"), Pledge: SignPledge(slave, qb, cryptoutil.HashBytes([]byte("v")), stamp)}

	for i := 0; i < 2; i++ {
		if err := c.verifyReply(sl, qb, honest); err != nil {
			t.Fatalf("honest reply %d rejected: %v", i, err)
		}
	}
	if st := c.Stats(); st.PledgeCacheHits != 1 || st.PledgeCacheMisses != 1 {
		t.Fatalf("pledge cache counters after a repeat: %+v", st)
	}

	bad := map[string]func(*ReadReply){
		"bad signature": func(r *ReadReply) { r.Pledge.Sig[0] ^= 1 },
		"wrong hash":    func(r *ReadReply) { r.Payload = []byte("w") },
		"wrong query": func(r *ReadReply) {
			r.Pledge = SignPledge(slave, query.Encode(query.Get{Key: "x"}), r.Pledge.ResultHash, stamp)
		},
		"wrong key": func(r *ReadReply) {
			r.Pledge = SignPledge(other, qb, r.Pledge.ResultHash, stamp)
		},
		"unknown master": func(r *ReadReply) {
			evil := SignStamp(cryptoutil.DeriveKeyPair("master", 9), 1, s.Now())
			r.Pledge = SignPledge(slave, qb, r.Pledge.ResultHash, evil)
		},
		"stale stamp": func(r *ReadReply) {
			old := SignStamp(master, 1, s.Now().Add(-c.cfg.Params.MaxLatency-time.Second))
			r.Pledge = SignPledge(slave, qb, r.Pledge.ResultHash, old)
		},
	}
	for name, mutate := range bad {
		r := honest
		r.Pledge = clonePledge(honest.Pledge)
		mutate(&r)
		// Twice: a rejected reply must not be cached into acceptance.
		for i := 0; i < 2; i++ {
			if err := c.verifyReply(sl, qb, r); err == nil {
				t.Errorf("%s accepted (attempt %d)", name, i)
			}
		}
	}
	// The honest reply, already cached, goes stale with time.
	clock.SetSkew(c.cfg.Params.EffectiveClientMaxLatency() + time.Second)
	stale := c.Stats().StaleRejects
	if err := c.verifyReply(sl, qb, honest); err == nil || c.Stats().StaleRejects != stale+1 {
		t.Fatalf("cached honest reply past max_latency: err = %v, stale rejects %d -> %d", err, stale, c.Stats().StaleRejects)
	}
}

// TestSlaveMemoisedPledgeMatchesSignPledge checks over many seeded
// inputs that the slave's memoised reply is byte-identical to a fresh
// SignPledge, on misses and on hits alike.
func TestSlaveMemoisedPledgeMatchesSignPledge(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	c := newSigCache(pledgeCacheSize)
	var hits int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few distinct inputs, so later seeds repeat earlier ones.
		key := fmt.Sprintf("key/%d", rng.Intn(20))
		qb := query.Encode(query.Get{Key: key})
		hash := cryptoutil.HashBytes([]byte{byte(rng.Intn(3))})
		stamp := SignStamp(master, uint64(rng.Intn(3)), time.Unix(int64(rng.Intn(2)), 0))
		got, hit := c.signPledge(slave, qb, hash, stamp)
		if hit {
			hits++
		}
		want := SignPledge(slave, qb, hash, stamp)
		if !bytes.Equal(EncodePledge(got), EncodePledge(want)) {
			t.Fatalf("seed %d (hit=%v): memoised pledge differs from SignPledge", seed, hit)
		}
	}
	if hits == 0 {
		t.Fatal("no memo hit over repeated inputs")
	}

	// End to end through the slave's read handler.
	r := newSlaveRig(t, Honest{})
	var replies [][]byte
	r.s.Go(func() {
		r.keepAlive(1)
		w := wire.NewWriter(64)
		w.Bytes_(query.Encode(query.Get{Key: "k"}))
		for i := 0; i < 3; i++ {
			body, err := r.slave.Handle("client", MethodRead, w.Bytes())
			if err != nil {
				t.Error(err)
				return
			}
			replies = append(replies, body)
		}
	})
	r.s.Run()
	if len(replies) != 3 {
		t.Fatal("reads failed")
	}
	rr, err := DecodeReadReply(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	p := rr.Pledge
	want := EncodeReadReply(ReadReply{Payload: rr.Payload, Pledge: SignPledge(r.slave.cfg.Keys, p.QueryBytes, p.ResultHash, p.Stamp)})
	for i, b := range replies {
		if !bytes.Equal(b, want) {
			t.Fatalf("reply %d differs from one signed by SignPledge", i)
		}
	}
	if st := r.slave.Stats(); st.PledgeCacheHits != 2 || st.PledgeCacheMisses != 1 {
		t.Fatalf("slave pledge memo counters: %+v", st)
	}
}

func TestSigCacheNeverExceedsBound(t *testing.T) {
	const size = 16
	c := newSigCache(size)
	sig := []byte("sig")
	for i := 0; i < 5*size; i++ {
		c.add([]byte(fmt.Sprintf("body/%d", i)), sig)
		if n := c.len(); n > size {
			t.Fatalf("after %d adds the cache holds %d entries, bound %d", i+1, n, size)
		}
		// Re-adding a present body must not grow the cache either.
		c.add([]byte(fmt.Sprintf("body/%d", i)), sig)
	}
	if n := c.len(); n != size {
		t.Fatalf("full cache holds %d entries, want %d", n, size)
	}
	// FIFO: the newest bodies are present, the oldest evicted.
	if !c.known([]byte(fmt.Sprintf("body/%d", 5*size-1)), sig) {
		t.Fatal("newest entry evicted")
	}
	if c.known([]byte("body/0"), sig) {
		t.Fatal("oldest entry kept past the bound")
	}
}

// TestAuditorRejectsCorruptedRepeatOfCachedPledge: the auditor first
// verifies an honest pledge, then receives the same pledge with a
// corrupted signature. The corrupted copy must miss the cache, count as
// a bad signature, and trigger no report.
func TestAuditorRejectsCorruptedRepeatOfCachedPledge(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		p := r.pledgeFor(query.Get{Key: "k"}, false)
		r.sendPledge(p)
		r.sendPledge(p)
		bad := clonePledge(p)
		bad.Sig[10] ^= 0x04
		r.sendPledge(bad)
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	st := r.auditor.Stats()
	if st.PledgesAudited != 2 || st.PledgesBadSig != 1 || st.ReportsSent != 0 || len(r.reports) != 0 {
		t.Fatalf("stats: %+v, reports %d", st, len(r.reports))
	}
	if st.PledgeCacheHits != 1 || st.PledgeCacheMisses != 2 {
		t.Fatalf("auditor pledge cache counters: %+v", st)
	}
}
