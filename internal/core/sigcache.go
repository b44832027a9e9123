// Signature caches: each ed25519 operation at most once per exact bytes.
//
// The same signed bytes reach a node many times. Every read served
// between two updates carries the slave's current stamp back to the
// client, every record of one batch in a sync stream shares the batch
// stamp, and pledge audits revisit stamps long after commit. Under
// skewed key popularity a slave also answers the same query many times
// under one keep-alive stamp: each such read produces byte-identical
// pledge bytes, which the slave signs, the client verifies and the
// auditor verifies again. One cache type, sigCache, lets every node do
// each of those operations once:
//
//   - verified-stamp caches (slave, client, master catch-up) and
//     verified-pledge caches (client, auditor) remember signatures that
//     passed a full check;
//   - the slave's pledge-signature memo remembers the signatures it
//     produced itself.
//
// Recognising repeated bytes is a map lookup, orders of magnitude
// cheaper than ed25519 (the simulator charges Costs.CacheLookup for a
// hit instead of Costs.Sign or Costs.VerifySig).
//
// Safety:
//
//   - Keys are the exact signed bytes, and a verification hit also needs
//     the exact signature on record for them. A cached verdict therefore
//     cannot be replayed for different bytes: change one bit of the
//     body (query, result hash, stamp, or the signer's key, which is part
//     of the signed body) or of the signature and the lookup misses, so
//     the full ed25519 check runs.
//   - Only positive verdicts are cached. A signature is recorded only
//     after a full check against this node's own trusted keys succeeds,
//     or after this node produced it; a forgery is re-checked, and
//     rejected, every time it arrives.
//   - ed25519 signing is deterministic (RFC 8032), so a memoised pledge
//     signature is byte-identical to a fresh one: memoisation changes
//     no reply.
package core

import (
	"bytes"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Cache bounds, in entries. Stamps recur over short windows (the
// interval between two updates, one sync stream, one audit pass), so a
// small bound captures nearly all repeats. Pledges repeat within one
// keep-alive stamp, which can span a few hundred reads per slave; an
// entry is a few hundred bytes, so a pledge cache stays under ~0.5 MiB.
const (
	stampCacheSize  = 256
	pledgeCacheSize = 1024
)

// sigCache is a bounded FIFO map from exact signed bytes to a signature
// known to be valid over them. Safe for concurrent use.
type sigCache struct {
	mu   sync.Mutex
	m    map[string][]byte // guarded by mu; signed bytes -> signature
	ring []string          // guarded by mu; keys in insertion order
	pos  int               // guarded by mu; next ring slot to evict
	size int

	hits, misses uint64 // guarded by mu
}

func newSigCache(size int) *sigCache {
	return &sigCache{m: make(map[string][]byte), size: size}
}

// known reports whether sig is the signature on record for body, and
// counts the probe as a hit or a miss.
func (c *sigCache) known(body, sig []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.m[string(body)]
	if ok && bytes.Equal(rec, sig) {
		c.hits++
		return true
	}
	c.misses++
	return false
}

// add records sig as valid over body, evicting the oldest entry once the
// cache is full. Both are copied: callers may pass pooled views.
func (c *sigCache) add(body, sig []byte) {
	sig = bytes.Clone(sig)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[string(body)]; ok {
		c.m[string(body)] = sig
		return
	}
	key := string(body)
	if len(c.ring) < c.size {
		c.ring = append(c.ring, key)
	} else {
		delete(c.m, c.ring[c.pos])
		c.ring[c.pos] = key
		c.pos = (c.pos + 1) % c.size
	}
	c.m[key] = sig
}

// stats returns the hit/miss counters.
func (c *sigCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// verifyStamp checks the stamp's signature against the trusted master
// set unless these exact bytes and signature verified before. It
// reports whether the expensive check was skipped (hit == true), so
// callers charging simulated CPU can charge CacheLookup instead of
// VerifySig.
func (c *sigCache) verifyStamp(v *VersionStamp, trusted []cryptoutil.PublicKey) (hit bool, err error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	v.appendSignedBytes(w)
	body := w.Bytes()
	if c.known(body, v.Sig) {
		return true, nil
	}
	if err := v.verifyBody(body, trusted); err != nil {
		return false, err
	}
	c.add(body, v.Sig)
	return false, nil
}

// verifyPledge checks the slave's signature on the pledge unless these
// exact bytes and signature verified before; hit reports the skip.
func (c *sigCache) verifyPledge(p *Pledge) (hit bool, err error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	p.appendSignedBytes(w)
	body := w.Bytes()
	if c.known(body, p.Sig) {
		return true, nil
	}
	if err := p.verifyBody(body); err != nil {
		return false, err
	}
	c.add(body, p.Sig)
	return false, nil
}

// signPledge returns SignPledge(slave, queryBytes, resultHash, stamp),
// reusing the signature memoised for byte-identical signed bytes
// (hit == true). The returned pledge's Sig may be shared with earlier
// replies and must not be modified.
func (c *sigCache) signPledge(slave *cryptoutil.KeyPair, queryBytes []byte, resultHash cryptoutil.Digest, stamp VersionStamp) (p Pledge, hit bool) {
	p = Pledge{QueryBytes: queryBytes, ResultHash: resultHash, Stamp: stamp, SlavePub: slave.Public}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	p.appendSignedBytes(w)
	body := w.Bytes()
	c.mu.Lock()
	sig, ok := c.m[string(body)]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		p.Sig = sig
		return p, true
	}
	p.Sig = slave.Sign(body)
	c.add(body, p.Sig)
	return p, false
}
