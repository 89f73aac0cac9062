package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/service"
)

func quickRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.MaxInsts = 1 << 12
	r.ScaleDiv = 8
	return r
}

func tempStore(t *testing.T) *service.DiskStore {
	t.Helper()
	st, err := service.OpenDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// peerKey finds a valid store key the given member owns.
func peerKey(t *testing.T, r *Ring, owner string) string { return peerKeyFrom(t, r, owner, 0) }

// peerKeyFrom finds the first key at or after hexKey(start) that owner owns.
func peerKeyFrom(t *testing.T, r *Ring, owner string, start int) string {
	t.Helper()
	for i := start; i < start+10000; i++ {
		if k := hexKey(i); r.Owner(k) == owner {
			return k
		}
	}
	t.Fatal("no key maps to peer")
	return ""
}

// artifact is one replicated kind as seen through a Node's store methods
// and a local shard, all reduced to the bytes that travel between replicas.
type artifact struct {
	name   string
	wire   []byte // the bytes a replica serves and pushes
	get    func(n *Node, key string) ([]byte, bool)
	put    func(n *Node, key string) error
	stored func(s *service.DiskStore, key string) ([]byte, bool)
}

var fakeStats = &pipeline.Stats{Name: "fake", Cycles: 12345, Committed: 678}

// artifacts lists both kinds: results (decoded and re-encoded as Stats, so
// they compare as JSON) and plan blobs (opaque bytes).
func artifacts(t *testing.T) []artifact {
	encode := func(st *pipeline.Stats, ok bool) ([]byte, bool) {
		if !ok {
			return nil, false
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return data, true
	}
	statsJSON, _ := encode(fakeStats, true)
	return []artifact{{
		name: "result",
		wire: statsJSON,
		get:  func(n *Node, key string) ([]byte, bool) { return encode(n.Get(key)) },
		put:  func(n *Node, key string) error { return n.Put(key, fakeStats) },
		stored: func(s *service.DiskStore, key string) ([]byte, bool) {
			return encode(s.Get(key))
		},
	}, {
		name:   "plan",
		wire:   fakePlanBlob,
		get:    (*Node).GetBlob,
		put:    func(n *Node, key string) error { return n.PutBlob(key, fakePlanBlob) },
		stored: (*service.DiskStore).GetBlob,
	}}
}

// TestNodeGetPeerPaths drives Get and GetBlob through every peer outcome
// against a fake owner replica: stored (peerHit, cached into the local
// shard so the next lookup is a shardHit without a network round trip),
// not stored (peerMiss), self-owned (never leaves the process), and
// finally a dead owner (peerError, degraded miss, backed off so the next
// lookup skips the network).
func TestNodeGetPeerPaths(t *testing.T) {
	for _, a := range artifacts(t) {
		t.Run(a.name, func(t *testing.T) {
			var requests atomic.Int64
			var ownedKey string // set once the ring is known
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				if r.Method == http.MethodGet && r.URL.Path == "/cluster/"+a.name+"/"+ownedKey {
					w.Write(a.wire)
					return
				}
				http.NotFound(w, r)
			}))
			defer peer.Close()

			local := tempStore(t)
			n, err := NewNode(Config{
				Self: "http://self", Peers: []string{peer.URL},
				Runner: quickRunner(), Local: local,
				PeerTimeout: time.Second, BackoffBase: time.Hour, // one failure downs the peer for the whole test
			})
			if err != nil {
				t.Fatal(err)
			}
			ownedKey = peerKey(t, n.Ring(), peer.URL)

			// Peer hit: fetched from the owner and cached in the local shard.
			got, ok := a.get(n, ownedKey)
			if !ok || !bytes.Equal(got, a.wire) {
				t.Fatalf("get = %s, %v", got, ok)
			}
			if m := n.Metrics(); m.PeerHits != 1 || m.ShardHits != 0 {
				t.Fatalf("after peer hit: %+v", m)
			}
			if cached, ok := a.stored(local, ownedKey); !ok || !bytes.Equal(cached, a.wire) {
				t.Fatal("fetched copy not cached in the local shard")
			}

			// Shard hit: the cached copy answers without the network.
			before := requests.Load()
			if _, ok := a.get(n, ownedKey); !ok {
				t.Fatal("cached copy missing")
			}
			if n.Metrics().ShardHits != 1 {
				t.Fatalf("metrics after cached get: %+v", n.Metrics())
			}
			if requests.Load() != before {
				t.Fatal("cached get still contacted the peer")
			}

			// Peer miss: the owner answers 404.
			missKey := peerKeyFrom(t, n.Ring(), peer.URL, 10000)
			if _, ok := a.get(n, missKey); ok {
				t.Fatal("miss key reported stored")
			}
			if n.Metrics().PeerMisses != 1 {
				t.Fatalf("metrics after peer miss: %+v", n.Metrics())
			}

			// Self-owned keys never leave the process.
			before = requests.Load()
			if _, ok := a.get(n, peerKey(t, n.Ring(), "http://self")); ok {
				t.Fatal("self key reported stored")
			}
			if requests.Load() != before {
				t.Fatal("self-owned miss contacted the peer")
			}

			// Dead owner: degraded miss, peerError, and the peer is backed
			// off — the follow-up get must not attempt the network.
			peer.Close()
			if _, ok := a.get(n, missKey); ok {
				t.Fatal("dead peer produced a hit")
			}
			m := n.Metrics()
			if m.PeerErrors == 0 {
				t.Fatalf("no peerError after dead peer: %+v", m)
			}
			if len(m.Peers) != 1 || m.Peers[0].Healthy {
				t.Fatalf("dead peer still healthy: %+v", m.Peers)
			}
			errsBefore := m.PeerErrors
			if _, ok := a.get(n, missKey); ok {
				t.Fatal("backed-off peer produced a hit")
			}
			if n.Metrics().PeerErrors != errsBefore {
				t.Fatal("backed-off peer was still contacted (peerErrors grew)")
			}
		})
	}
}

// TestNodePutReplicates: Put and PutBlob always land in the local shard and
// push the same bytes to the owning replica; a dead owner costs a
// peerError, never a put error.
func TestNodePutReplicates(t *testing.T) {
	for _, a := range artifacts(t) {
		t.Run(a.name, func(t *testing.T) {
			var puts atomic.Int64
			var pushed atomic.Value // []byte: last body PUT to the fake owner
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/cluster/"+a.name+"/") {
					body, _ := io.ReadAll(r.Body)
					pushed.Store(body)
					puts.Add(1)
					w.WriteHeader(http.StatusNoContent)
					return
				}
				http.NotFound(w, r)
			}))
			defer peer.Close()

			local := tempStore(t)
			n, err := NewNode(Config{
				Self: "http://self", Peers: []string{peer.URL},
				Runner: quickRunner(), Local: local,
				PeerTimeout: time.Second, BackoffBase: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}

			key := peerKey(t, n.Ring(), peer.URL)
			if err := a.put(n, key); err != nil {
				t.Fatal(err)
			}
			if got, ok := a.stored(local, key); !ok || !bytes.Equal(got, a.wire) {
				t.Fatal("put skipped the local shard")
			}
			if puts.Load() != 1 || n.Metrics().Forwarded != 1 {
				t.Fatalf("replication: puts=%d metrics=%+v", puts.Load(), n.Metrics())
			}
			if body, _ := pushed.Load().([]byte); !bytes.Equal(body, a.wire) {
				t.Fatalf("owner received %q, want %q", body, a.wire)
			}

			// Self-owned: no replication.
			if err := a.put(n, peerKey(t, n.Ring(), "http://self")); err != nil {
				t.Fatal(err)
			}
			if puts.Load() != 1 {
				t.Fatal("self-owned put replicated")
			}

			// Dead owner: local write still succeeds, error only counted.
			peer.Close()
			key2 := peerKeyFrom(t, n.Ring(), peer.URL, 20000)
			if err := a.put(n, key2); err != nil {
				t.Fatalf("put with dead owner failed: %v", err)
			}
			if _, ok := a.stored(local, key2); !ok {
				t.Fatal("degraded put skipped the local shard")
			}
			if n.Metrics().PeerErrors == 0 {
				t.Fatal("dead owner not counted")
			}
		})
	}
}

// TestNodeBackoffRecovers: a failed peer re-enters after its backoff
// window, and a successful ping resets the failure count.
func TestNodeBackoffRecovers(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"node": "peer"})
	}))
	defer peer.Close()
	n, err := NewNode(Config{
		Self: "http://self", Peers: []string{"http://127.0.0.1:1", peer.URL},
		Runner:      quickRunner(),
		PeerTimeout: 200 * time.Millisecond, Retries: -1, BackoffBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://127.0.0.1:1"
	if err := n.Ping(dead); err == nil {
		t.Fatal("ping of dead peer succeeded")
	}
	if n.healthy(dead, time.Now()) {
		t.Fatal("dead peer healthy immediately after failure")
	}
	if err := n.Ping(dead); err == nil || n.Metrics().PeerErrors != 1 {
		t.Fatalf("backed-off ping reached the network: %v, %+v", err, n.Metrics())
	}
	time.Sleep(15 * time.Millisecond)
	if !n.healthy(dead, time.Now()) {
		t.Fatal("peer still down after backoff window")
	}

	if err := n.Ping(peer.URL); err != nil {
		t.Fatal(err)
	}
	n.CheckPeers() // live peer pinged again, dead one probed per backoff
	for _, p := range n.Metrics().Peers {
		if p.URL == peer.URL && !p.Healthy {
			t.Fatalf("live peer unhealthy: %+v", p)
		}
	}
}
