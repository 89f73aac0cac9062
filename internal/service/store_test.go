package service

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/pipeline"
)

func sampleStats(cycles int64) *pipeline.Stats {
	return &pipeline.Stats{
		Name: "mcf", Policy: "NOREBA",
		Cycles: cycles, Committed: 1000, Branches: 120, Mispredicts: 7,
		OoOCommitted: 333, L1DAccesses: 400, L1DMisses: 25,
		BranchStalls: map[int]*pipeline.BranchStall{
			12: {PC: 12, StallCycles: 9, Dependents: 3, Occurrences: 4, Mispredicts: 1},
			99: {PC: 99, StallCycles: 1, Occurrences: 2},
		},
	}
}

// hexKey pads a name into a valid lowercase-hex store key.
func hexKey(seed byte) string {
	return strings.Repeat(string([]byte{'a' + seed%6}), 64)
}

func TestDiskStoreRoundTrip(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(0)
	want := sampleStats(4242)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored result not found")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the stats:\ngot  %+v\nwant %+v", got, want)
	}
	if _, ok := s.Get(hexKey(1)); ok {
		t.Error("unknown key reported as hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put / 1 entry", st)
	}
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(2)
	want := sampleStats(777)
	if err := s1.Put(key, want); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("result lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("reopened store returned different stats")
	}
}

// TestDiskStoreCrashArtifacts: a temp file left by a crashed writer is
// removed at open and never served; a truncated/corrupt result file is a
// miss that also removes the file so the next Put rewrites it.
func TestDiskStoreCrashArtifacts(t *testing.T) {
	dir := t.TempDir()
	leftover := filepath.Join(dir, hexKey(3)+".tmp-123")
	if err := os.WriteFile(leftover, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Age the artifact past the GC grace window: fresh temp files are a
	// live writer's work in progress and must survive a concurrent open.
	stale := time.Now().Add(-2 * tempFileGrace)
	if err := os.Chtimes(leftover, stale, stale); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, hexKey(5)+".tmp-456")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	corruptKey := hexKey(4)
	if err := os.WriteFile(filepath.Join(dir, corruptKey+string(Results)), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Error("abandoned temp file survived open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (a live writer's) deleted at open")
	}
	if _, ok := s.Get(corruptKey); ok {
		t.Fatal("corrupt entry served as a result")
	}
	if _, err := os.Stat(filepath.Join(dir, corruptKey+string(Results))); !os.IsNotExist(err) {
		t.Error("corrupt file not removed after failed read")
	}
	// The slot is reusable.
	if err := s.Put(corruptKey, sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(corruptKey); !ok {
		t.Error("rewritten entry not readable")
	}
}

func TestDiskStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	probe, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put(hexKey(0), sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Bytes()
	os.Remove(probe.path(hexKey(0) + string(Results)))

	// Room for two entries, not three.
	s, err := OpenDiskStore(t.TempDir(), 2*entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, k2 := hexKey(0), hexKey(1), hexKey(2)
	if err := s.Put(k0, sampleStats(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, sampleStats(2)); err != nil {
		t.Fatal(err)
	}
	// Touch k0 so k1 is the eviction victim.
	if _, ok := s.Get(k0); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := s.Put(k2, sampleStats(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k1); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := s.Get(k0); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := s.Get(k2); !ok {
		t.Error("just-written entry was evicted")
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes > st.MaxBytes {
		t.Errorf("eviction accounting wrong: %+v", st)
	}
}

func TestDiskStoreRejectsHostileKeys(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "..", "../../etc/passwd", "ABCDEF00aa", "short", strings.Repeat("g", 64)} {
		if err := s.Put(key, sampleStats(1)); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) reported a hit", key)
		}
		if err := s.PutBlob(key, []byte("x")); err == nil {
			t.Errorf("PutBlob(%q) accepted an invalid key", key)
		}
		if _, ok := s.GetBlob(key); ok {
			t.Errorf("GetBlob(%q) reported a hit", key)
		}
	}
}

// TestDiskStoreBlobNamespace: blobs round-trip raw bytes, coexist with a
// result under the same content hash, and both survive a reopen.
func TestDiskStoreBlobNamespace(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(0)
	blob := []byte{'N', 'R', 'P', 'F', 1, 0, 0xFF, 0x00, 0x7F}
	if err := s.PutBlob(key, blob); err != nil {
		t.Fatal(err)
	}
	wantStats := sampleStats(99)
	if err := s.Put(key, wantStats); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBlob(key)
	if !ok {
		t.Fatal("stored blob not found")
	}
	if !reflect.DeepEqual(got, blob) {
		t.Errorf("blob round trip changed the bytes: got %x want %x", got, blob)
	}
	gotStats, ok := s.Get(key)
	if !ok {
		t.Fatal("result under the blob's key not found")
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Error("result under the blob's key changed")
	}
	if s.Len() != 2 {
		t.Errorf("store holds %d entries, want 2 (one result + one blob)", s.Len())
	}
	if _, ok := s.GetBlob(hexKey(1)); ok {
		t.Error("unknown blob key reported as hit")
	}

	// Both namespaces are reindexed at open.
	s2, err := OpenDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.GetBlob(key); !ok || !reflect.DeepEqual(got, blob) {
		t.Errorf("blob lost or changed across reopen: %x ok=%v", got, ok)
	}
	if _, ok := s2.Get(key); !ok {
		t.Error("result lost across reopen")
	}
}

// TestDiskStoreBlobEviction: blobs count toward the shared byte bound and are
// evicted in the same recency order as results.
func TestDiskStoreBlobEviction(t *testing.T) {
	const blobSize = 512
	blob := func(fill byte) []byte {
		b := make([]byte, blobSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	// Room for two blobs, not three.
	s, err := OpenDiskStore(t.TempDir(), 2*blobSize+blobSize/2)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1, k2 := hexKey(0), hexKey(1), hexKey(2)
	if err := s.PutBlob(k0, blob(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlob(k1, blob(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBlob(k0); !ok { // touch k0 so k1 is the victim
		t.Fatal("k0 missing before eviction")
	}
	if err := s.PutBlob(k2, blob(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBlob(k1); ok {
		t.Error("least-recently-used blob survived eviction")
	}
	if _, ok := s.GetBlob(k0); !ok {
		t.Error("recently used blob was evicted")
	}
	if _, ok := s.GetBlob(k2); !ok {
		t.Error("just-written blob was evicted")
	}
	if st := s.Stats(); st.Evictions == 0 || st.Bytes > st.MaxBytes {
		t.Errorf("blob eviction accounting wrong: %+v", st)
	}
}
