package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/service"
)

// Default peer-RPC knobs. Result fetches are small (a Stats JSON is a few
// KiB) so the timeout mostly bounds connection establishment to a dead
// peer; forwarded sweep groups override it with the sweep's own deadline.
const (
	DefaultPeerTimeout = 2 * time.Second
	DefaultRetries     = 1 // retries beyond the first attempt
	DefaultBackoffBase = 250 * time.Millisecond
	maxBackoffShift    = 6 // caps backoff at base << 6 (16s at the default)
)

// kind is one artifact type the fleet replicates between shards. Results
// (pipeline.Stats JSON) and sampling plans (opaque bytes) travel one byte
// path — lookup and replicate over fetch and push, one GET and one PUT
// handler each — and differ only in route, store namespace, size cap and
// the check a PUT body must pass.
type kind struct {
	route string             // served at /cluster/{route}/{hash}
	ns    service.Namespace  // the local shard's key space
	mime  string             // Content-Type on the wire
	max   int64              // size cap, in either direction
	check func([]byte) error // vets a PUT body; nil accepts any bytes
}

var (
	// resultKind: a Stats JSON is a few KiB, so 16 MiB is only a sanity cap.
	resultKind = kind{"result", service.Results, "application/json", 16 << 20,
		func(b []byte) error { return json.Unmarshal(b, new(pipeline.Stats)) }}
	// planKind: a plan file carries BBV columns plus two architectural
	// snapshots per representative — typically KiBs to a few MiB. Its bytes
	// are opaque here: integrity lives in the plan file's own magic, version
	// and bounds checks at decode time.
	planKind = kind{"plan", service.Blobs, "application/octet-stream", 64 << 20, nil}
)

func (k kind) path(key string) string { return "/cluster/" + k.route + "/" + key }

// Config assembles a replica's view of the fleet.
type Config struct {
	// Self is this replica's advertised base URL (e.g. http://10.0.0.1:8080).
	// It must appear verbatim in every replica's peer list — ring agreement
	// is textual.
	Self string
	// Peers are the other replicas' base URLs. Empty means a single-node
	// cluster: /sweep works, every key is owned locally.
	Peers []string
	// Runner executes simulations (shared with the interactive scheduler).
	Runner *experiments.Runner
	// Local is this replica's own shard of the result store; nil disables
	// persistence (every lookup below the peer layer misses).
	Local *service.DiskStore
	// PeerTimeout bounds one peer RPC attempt (0 = DefaultPeerTimeout).
	PeerTimeout time.Duration
	// Retries is how many times a failed peer RPC is retried before the
	// peer is marked down (<0 = none, 0 = DefaultRetries).
	Retries int
	// BackoffBase seeds the exponential re-probe delay for a down peer
	// (0 = DefaultBackoffBase). After f consecutive failures the peer is
	// skipped for base<<(f-1), capped at base<<6.
	BackoffBase time.Duration
	// SweepMax bounds concurrently streaming sweeps (0 = DefaultSweepMax).
	SweepMax int
}

// Node is one replica's cluster layer. It implements
// experiments.ResultStore: Get consults the local shard first, then the
// key's owning replica, so the runner's existing store machinery gets
// peer-aware lookups without knowing the cluster exists. All methods are
// safe for concurrent use.
type Node struct {
	self   string
	ring   *Ring
	runner *experiments.Runner
	local  *service.DiskStore
	client *http.Client

	timeout time.Duration
	retries int
	backoff time.Duration

	mu    sync.Mutex
	peers map[string]*peerState

	sweepSem chan struct{}

	shardHits    atomic.Int64
	peerHits     atomic.Int64
	peerMisses   atomic.Int64
	forwarded    atomic.Int64
	peerErrors   atomic.Int64
	sweepsActive atomic.Int64
	sweepsTotal  atomic.Int64
}

// peerState tracks one peer's liveness: consecutive failures and the
// deadline before which the peer is skipped entirely.
type peerState struct {
	fails     int
	downUntil time.Time
}

// NewNode validates cfg and builds the replica's cluster layer.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self base URL is required")
	}
	if cfg.Runner == nil {
		return nil, fmt.Errorf("cluster: Runner is required")
	}
	members := append([]string{cfg.Self}, cfg.Peers...)
	ring, err := NewRing(members, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	n := &Node{
		self:    cfg.Self,
		ring:    ring,
		runner:  cfg.Runner,
		local:   cfg.Local,
		client:  &http.Client{},
		timeout: cfg.PeerTimeout,
		retries: cfg.Retries,
		backoff: cfg.BackoffBase,
		peers:   map[string]*peerState{},
	}
	if n.timeout <= 0 {
		n.timeout = DefaultPeerTimeout
	}
	if n.retries == 0 {
		n.retries = DefaultRetries
	} else if n.retries < 0 {
		n.retries = 0
	}
	if n.backoff <= 0 {
		n.backoff = DefaultBackoffBase
	}
	sweepMax := cfg.SweepMax
	if sweepMax <= 0 {
		sweepMax = DefaultSweepMax
	}
	n.sweepSem = make(chan struct{}, sweepMax)
	for _, m := range ring.Members() {
		if m != cfg.Self {
			n.peers[m] = &peerState{}
		}
	}
	return n, nil
}

// Self returns this replica's advertised base URL.
func (n *Node) Self() string { return n.self }

// Ring returns the fleet's (shared, immutable) hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// healthy reports whether url may be contacted now (true for unknown URLs:
// only tracked peers ever back off).
func (n *Node) healthy(url string, now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[url]
	return p == nil || now.After(p.downUntil) || now.Equal(p.downUntil)
}

func (n *Node) markFailure(url string, now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[url]
	if p == nil {
		return
	}
	p.fails++
	shift := p.fails - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	p.downUntil = now.Add(n.backoff << shift)
}

func (n *Node) markSuccess(url string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[url]; p != nil {
		p.fails = 0
		p.downUntil = time.Time{}
	}
}

// Get implements experiments.ResultStore over lookup. A result that does
// not decode as Stats, local or fetched, is a miss.
func (n *Node) Get(key string) (*pipeline.Stats, bool) {
	var st *pipeline.Stats
	if _, ok := n.lookup(resultKind, key, func(b []byte) error {
		st = new(pipeline.Stats)
		return json.Unmarshal(b, st)
	}); !ok {
		return nil, false
	}
	return st, true
}

// Put implements experiments.ResultStore over replicate.
func (n *Node) Put(key string, st *pipeline.Stats) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return n.replicate(resultKind, key, data)
}

// GetBlob implements experiments.BlobStore over lookup: a missed plan is
// rebuilt locally.
func (n *Node) GetBlob(key string) ([]byte, bool) { return n.lookup(planKind, key, nil) }

// PutBlob implements experiments.BlobStore over replicate, so one replica's
// plan build amortises across the fleet.
func (n *Node) PutBlob(key string, data []byte) error { return n.replicate(planKind, key, data) }

// lookup returns key's bytes of kind k: the local shard's copy (shardHit),
// else — if another replica owns the key and is not backed off — the
// owner's (peerHit, cached into the local shard; peerMiss when the owner has
// none). accept, when non-nil, vets bytes from either source: a local copy
// it rejects is dropped as corrupt, a fetched one is a peerMiss. Any failure
// degrades to a miss, which makes the runner simulate or rebuild locally: a
// dead owner costs duplicate work, never availability.
func (n *Node) lookup(k kind, key string, accept func([]byte) error) ([]byte, bool) {
	if n.local != nil {
		if data, ok := n.local.GetRaw(k.ns, key, accept); ok {
			n.shardHits.Add(1)
			return data, true
		}
	}
	owner := n.ring.Owner(key)
	if owner == n.self {
		return nil, false
	}
	data, err := n.fetch(k, owner, key, accept)
	switch {
	case err != nil:
		return nil, false // counted by peerRPC
	case data == nil:
		n.peerMisses.Add(1)
		return nil, false
	}
	n.peerHits.Add(1)
	if n.local != nil {
		n.local.PutRaw(k.ns, key, data) // cache the fetched copy; best-effort
	}
	return data, true
}

// replicate writes data under key into the local shard (the warm cache, and
// the degraded path depends on it), then pushes it to the key's owning
// replica so the fleet's canonical copy lands on the right shard.
// Replication failures are non-fatal: the owner can rebuild or fetch later.
func (n *Node) replicate(k kind, key string, data []byte) error {
	var err error
	if n.local != nil {
		err = n.local.PutRaw(k.ns, key, data)
	}
	if owner := n.ring.Owner(key); owner != n.self && n.push(k, owner, key, data) == nil {
		n.forwarded.Add(1)
	}
	return err
}

// fetch GETs key's bytes of kind k from owner's local shard, at most k.max
// of them, and vets them with accept. nil data with nil error means the
// owner has no usable copy: it answered "not stored", or accept rejected
// what it served.
func (n *Node) fetch(k kind, owner, key string, accept func([]byte) error) ([]byte, error) {
	var data []byte
	err := n.peerRPC(owner, func(ctx context.Context) error {
		data = nil
		resp, err := n.send(ctx, http.MethodGet, owner+k.path(key), "", nil)
		if err != nil {
			return err
		}
		defer drain(resp.Body)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			return nil
		default:
			return fmt.Errorf("peer status %s", resp.Status)
		}
		if data, err = io.ReadAll(io.LimitReader(resp.Body, k.max+1)); err != nil {
			return fmt.Errorf("read %s: %w", k.route, err)
		}
		if int64(len(data)) > k.max {
			return fmt.Errorf("%s exceeds %d bytes", k.route, k.max)
		}
		if accept != nil && accept(data) != nil {
			data = nil // a corrupt copy on the owner is a miss, not a dead peer
		}
		return nil
	})
	return data, err
}

// push PUTs key's bytes of kind k into owner's local shard.
func (n *Node) push(k kind, owner, key string, data []byte) error {
	return n.peerRPC(owner, func(ctx context.Context) error {
		resp, err := n.send(ctx, http.MethodPut, owner+k.path(key), k.mime, bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer drain(resp.Body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("peer status %s", resp.Status)
		}
		return nil
	})
}

// send issues one peer request; the caller drains the response body.
func (n *Node) send(ctx context.Context, method, url, mime string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if mime != "" {
		req.Header.Set("Content-Type", mime)
	}
	return n.client.Do(req)
}

// Ping probes url's /cluster/ping and updates its health state.
func (n *Node) Ping(url string) error {
	return n.peerRPC(url, func(ctx context.Context) error {
		resp, err := n.send(ctx, http.MethodGet, url+"/cluster/ping", "", nil)
		if err != nil {
			return err
		}
		defer drain(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("peer status %s", resp.Status)
		}
		return nil
	})
}

// CheckPeers pings every currently-contactable peer once; main's health
// loop calls it periodically so downed peers re-enter after recovery even
// with no traffic.
func (n *Node) CheckPeers() {
	now := time.Now()
	for url := range n.peers {
		if n.healthy(url, now) {
			n.Ping(url)
		}
	}
}

// peerRPC runs one peer call with the node's timeout, bounded retries and
// health bookkeeping. A peer in backoff fails immediately without a network
// attempt; exhausted retries mark the peer down and count a peerError.
func (n *Node) peerRPC(url string, call func(context.Context) error) error {
	now := time.Now()
	if !n.healthy(url, now) {
		return fmt.Errorf("cluster: peer %s is backed off", url)
	}
	var err error
	for attempt := 0; attempt <= n.retries; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), n.timeout)
		err = call(ctx)
		cancel()
		if err == nil {
			n.markSuccess(url)
			return nil
		}
	}
	n.peerErrors.Add(1)
	n.markFailure(url, time.Now())
	return fmt.Errorf("cluster: peer %s: %w", url, err)
}

// Metrics snapshots the replica's cluster counters for /metrics.
func (n *Node) Metrics() *service.ClusterMetrics {
	m := &service.ClusterMetrics{
		Node:         n.self,
		Peers:        []service.PeerStatus{},
		ShardHits:    n.shardHits.Load(),
		PeerHits:     n.peerHits.Load(),
		PeerMisses:   n.peerMisses.Load(),
		Forwarded:    n.forwarded.Load(),
		PeerErrors:   n.peerErrors.Load(),
		SweepsActive: n.sweepsActive.Load(),
		SweepsTotal:  n.sweepsTotal.Load(),
	}
	now := time.Now()
	for _, url := range n.ring.Members() {
		if url != n.self {
			m.Peers = append(m.Peers, service.PeerStatus{URL: url, Healthy: n.healthy(url, now)})
		}
	}
	return m
}

// drain discards and closes an HTTP response body so the connection can be
// reused.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
