package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestSlaveReadPledgesVersionItRanAt hammers one slave with concurrent
// scan reads while a master applies updates to it, on real goroutines
// (run it under -race). Every update puts a new key, so a Count over the
// store names the version it ran at exactly. Each pledge must name that
// version: a slave that checked its stamp against the replica in one
// critical section and executed the query in another could answer at
// version v+1 while pledging v, which the auditor would take as a lie.
func TestSlaveReadPledgesVersionItRanAt(t *testing.T) {
	const (
		preload = 500
		updates = 600
		readers = 4
	)
	master := cryptoutil.DeriveKeyPair("master", 0)
	initial := store.New()
	for i := 0; i < preload; i++ {
		initial.Apply(store.Put{Key: fmt.Sprintf("pre/%04d", i), Value: []byte{1}})
	}
	base := initial.Version()
	params := DefaultParams()
	params.MaxLatency = time.Minute
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: params,
		MasterAddr: "master", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, nil, initial)
	ka := SignStamp(master, base, time.Now())
	kaw := wire.NewWriter(128)
	ka.Encode(kaw)
	kaw.String_("master")
	if _, err := sl.Handle("master", MethodKeepAlive, kaw.Bytes()); err != nil {
		t.Fatal(err)
	}

	rw := wire.NewWriter(32)
	rw.Bytes_(query.Encode(query.Count{P: ""}))
	readBody := rw.Bytes()
	var (
		stop           atomic.Bool
		served, misled atomic.Int64
		wg             sync.WaitGroup
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				body, err := sl.Handle("client", MethodRead, readBody)
				if err != nil {
					continue // refused while the stamp catches up
				}
				rr, err := DecodeReadReply(body)
				if err != nil {
					t.Error(err)
					return
				}
				n, err := query.CountResult(rr.Payload)
				if err != nil {
					t.Error(err)
					return
				}
				served.Add(1)
				if want := uint64(preload) + rr.Pledge.Stamp.Version - base; n != want {
					misled.Add(1)
				}
			}
		}()
	}
	for v := base + 1; v <= base+updates; v++ {
		opBytes := store.EncodeOp(store.Put{Key: fmt.Sprintf("new/%05d", v), Value: []byte{2}})
		stamp := SignStampWithOp(master, v, time.Now(), opBytes)
		w := wire.NewWriter(256)
		w.Uvarint(v)
		w.Bytes_(opBytes)
		stamp.Encode(w)
		w.String_("master")
		if _, err := sl.Handle("master", MethodUpdate, w.Bytes()); err != nil {
			t.Fatalf("update %d: %v", v, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no read was served beside the updates")
	}
	if m := misled.Load(); m != 0 {
		t.Fatalf("%d of %d pledges name a version other than the one the query ran at", m, served.Load())
	}
}
