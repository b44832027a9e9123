package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/wire"
)

// fuzzHonestPledge is a validly signed pledge; the fuzz targets seed
// their corpora with its encodings and pre-load a verified-pledge cache
// with it, so mutants of a cached pledge are exercised.
func fuzzHonestPledge() Pledge {
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	stamp := SignStamp(master, 3, time.Unix(1000, 0).UTC())
	return SignPledge(slave, query.Encode(query.Get{Key: "k"}), cryptoutil.HashBytes([]byte("v")), stamp)
}

// checkDecodedPledge asserts the invariants every decoded pledge must
// satisfy: its encoding round-trips canonically, and the verified-pledge
// cache (holding honest) gives the same verdict as a plain VerifySig,
// hitting only on honest's exact bytes and signature.
func checkDecodedPledge(t *testing.T, p Pledge, honest Pledge) {
	enc := EncodePledge(p)
	p2, err := DecodePledge(wire.NewReader(enc))
	if err != nil {
		t.Fatalf("re-decoding an encoded pledge: %v", err)
	}
	if !bytes.Equal(EncodePledge(p2), enc) {
		t.Fatal("pledge encoding does not round-trip")
	}

	c := newSigCache(4)
	if _, err := c.verifyPledge(&honest); err != nil {
		t.Fatal(err)
	}
	plain := p.VerifySig()
	hit, cached := c.verifyPledge(&p)
	if (plain == nil) != (cached == nil) {
		t.Fatalf("cache verdict %v differs from VerifySig %v", cached, plain)
	}
	if hit && !bytes.Equal(enc, EncodePledge(honest)) {
		t.Fatal("cache hit for bytes other than the cached pledge's")
	}
	if cached == nil {
		if hit, _ := c.verifyPledge(&p); !hit {
			t.Fatal("verified pledge not cached")
		}
	}
}

// FuzzDecodePledge: DecodePledge reads untrusted bytes (client reports,
// auditor forwards) whose fields now also form a cache key. No input may
// panic, and every decoded pledge must satisfy checkDecodedPledge.
func FuzzDecodePledge(f *testing.F) {
	honest := fuzzHonestPledge()
	enc := EncodePledge(honest)
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add([]byte{})
	f.Add([]byte{0x01, 'q', 0x03, 1, 2, 3}) // result hash of the wrong length
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePledge(wire.NewReader(data))
		if err != nil {
			return
		}
		checkDecodedPledge(t, p, honest)
	})
}

// FuzzDecodeReadReply: DecodeReadReply parses every slave answer a
// client receives. No input may panic; a decoded reply re-encodes
// canonically and its pledge satisfies checkDecodedPledge.
func FuzzDecodeReadReply(f *testing.F) {
	honest := fuzzHonestPledge()
	enc := EncodeReadReply(ReadReply{Payload: []byte("v"), Pledge: honest})
	f.Add(enc)
	f.Add(enc[:len(enc)-2])
	f.Add(append(bytes.Clone(enc), 0x00)) // trailing byte
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rr, err := DecodeReadReply(data)
		if err != nil {
			return
		}
		enc := EncodeReadReply(rr)
		rr2, err := DecodeReadReply(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded reply: %v", err)
		}
		if !bytes.Equal(EncodeReadReply(rr2), enc) {
			t.Fatal("read reply encoding does not round-trip")
		}
		checkDecodedPledge(t, rr.Pledge, honest)
	})
}
