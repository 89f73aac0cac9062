package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/service"
)

// fakePlanBlob is an arbitrary binary payload standing in for an encoded
// sampling plan — the cluster layer treats it as opaque bytes.
var fakePlanBlob = []byte{'N', 'R', 'P', 'F', 1, 0x00, 0xFF, 0xDE, 0xAD, 0xBE, 0xEF}

// TestClusterPlanReplication exercises the real /cluster/plan/{hash}
// handlers over loopback HTTP: a blob seeded on its owning replica is
// fetchable from the other replica (and cached there), and a PutBlob on the
// non-owner lands on the owner's shard.
func TestClusterPlanReplication(t *testing.T) {
	reps := startCluster(t, 2)
	a, b := reps[0], reps[1]

	// A blob stored only on its owner is visible fleet-wide.
	ownedByB := peerKey(t, a.node.Ring(), b.url)
	if err := b.store.PutBlob(ownedByB, fakePlanBlob); err != nil {
		t.Fatal(err)
	}
	got, ok := a.node.GetBlob(ownedByB)
	if !ok || !bytes.Equal(got, fakePlanBlob) {
		t.Fatalf("cross-replica GetBlob = %x, %v", got, ok)
	}
	if _, ok := a.store.GetBlob(ownedByB); !ok {
		t.Fatal("fetched blob not cached on the requesting replica")
	}

	// A blob written on the non-owner replicates to the owner's shard.
	other := ""
	for i := 0; ; i++ {
		if k := hexKey(50000 + i); a.node.Ring().Owner(k) == b.url && k != ownedByB {
			other = k
			break
		}
	}
	if err := a.node.PutBlob(other, fakePlanBlob); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.store.GetBlob(other); !ok || !bytes.Equal(got, fakePlanBlob) {
		t.Fatal("PutBlob did not replicate to the owning replica")
	}

	// An unknown plan key answers 404 through the real handler: a peer miss,
	// not an error.
	missing := ""
	for i := 0; ; i++ {
		if k := hexKey(60000 + i); a.node.Ring().Owner(k) == b.url {
			missing = k
			break
		}
	}
	if _, ok := a.node.GetBlob(missing); ok {
		t.Fatal("unknown plan key reported stored")
	}
	if m := a.node.Metrics(); m.PeerMisses == 0 || m.PeerErrors != 0 {
		t.Fatalf("miss accounting after 404: %+v", m)
	}
}

// TestClusterPutRejects: the real PUT handlers refuse what a peer must not
// store — a result body that does not decode as Stats, and a plan over the
// 64 MiB cap (declared up front, so it is refused unread) — with 400 and
// nothing stored.
func TestClusterPutRejects(t *testing.T) {
	rep := startCluster(t, 1)[0]
	key := peerKey(t, rep.node.Ring(), rep.url)

	req, err := http.NewRequest(http.MethodPut, rep.url+"/cluster/result/"+key, strings.NewReader(`["not", "stats"]`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-Stats result body: status %d, want 400", resp.StatusCode)
	}

	over := planKind.max + 1
	big := httptest.NewRequest(http.MethodPut, "/cluster/plan/"+key, io.LimitReader(zeros{}, over))
	big.ContentLength = over
	rec := httptest.NewRecorder()
	rep.ts.Config.Handler.ServeHTTP(rec, big)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversize plan body: status %d, want 400", rec.Code)
	}

	if n := rep.store.Len(); n != 0 {
		t.Errorf("rejected bodies left %d entries in the store", n)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestClusterCorruptOwnerResult: an owner serves its stored bytes as they
// are, so a result file that no longer decodes reaches the fetching replica,
// which counts it a peerMiss — not a peer error that would back the healthy
// owner off — and caches nothing.
func TestClusterCorruptOwnerResult(t *testing.T) {
	reps := startCluster(t, 2)
	a, b := reps[0], reps[1]
	key := peerKey(t, a.node.Ring(), b.url)
	if err := b.store.PutRaw(service.Results, key, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.node.Get(key); ok {
		t.Fatal("corrupt owner copy reported stored")
	}
	if m := a.node.Metrics(); m.PeerMisses != 1 || m.PeerErrors != 0 {
		t.Fatalf("corrupt owner copy: %+v", m)
	}
	if a.store.Len() != 0 {
		t.Error("corrupt owner copy cached on the fetching replica")
	}
}
