// Package service turns the experiment runner into a long-running
// simulation service: a priority-scheduled, bounded worker pool over
// experiments.Runner, a persistent content-addressed result store, and an
// HTTP API (cmd/noreba-serve) with live per-job event streaming and a
// metrics endpoint. Everything is stdlib-only.
package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/noreba-sim/noreba/internal/pipeline"
)

// DiskStore is a persistent, content-addressed simulation-result store: one
// JSON file per result, named by the canonical config hash
// (experiments.Runner.ConfigHash), plus one binary file per stored artifact
// blob (encoded sampling plans, named by their plan hash — see
// experiments.BlobStore). Writes are crash-safe — marshalled to a temp file
// in the same directory, fsynced, then renamed into place — so a torn write
// can never be read back. Total on-disk size is bounded: when an insert
// pushes the store past MaxBytes, least-recently-used entries are deleted
// (recency is in-memory access order, seeded from file modification times at
// open). Results and blobs share the directory, the recency order and the
// byte bound, but live in separate key namespaces: entries are indexed by
// file name, so a result and a blob under the same content hash coexist.
//
// All methods are safe for concurrent use.
type DiskStore struct {
	dir      string
	maxBytes int64

	mu     sync.Mutex
	byName map[string]*storeEntry
	lru    *list.List // *storeEntry, front = most recently used
	bytes  int64

	hits, misses, puts, evictions atomic.Int64
}

type storeEntry struct {
	name string // file name: key + extension
	size int64
	elem *list.Element
}

// Namespace is one key space of the store, named by the suffix of its
// files: a result and a blob under the same content hash coexist. Anything
// in the store directory carrying neither suffix — in particular abandoned
// temp files from a crash mid-put — is garbage-collected at open.
type Namespace string

const (
	// Results holds JSON-encoded pipeline.Stats (Get, Put).
	Results Namespace = ".json"
	// Blobs holds opaque binary artifacts, encoded sampling plans (GetBlob,
	// PutBlob).
	Blobs Namespace = ".bin"
)

// tempFileGrace is how old a non-result file must be before open-time
// garbage collection may delete it: long enough that no live writer's
// in-flight temp file qualifies, short enough that crash litter still goes.
const tempFileGrace = time.Minute

// OpenDiskStore opens (creating if needed) a result store rooted at dir,
// bounded to maxBytes of result data (<= 0 means 1 GiB). Leftover temporary
// files from an interrupted writer are removed; existing results and blobs
// are indexed oldest-first so eviction order survives restarts.
func OpenDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	s := &DiskStore{dir: dir, maxBytes: maxBytes, byName: map[string]*storeEntry{}, lru: list.New()}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	type seed struct {
		name string
		size int64
		mod  time.Time
	}
	var seeds []seed
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		var ext string
		switch {
		case strings.HasSuffix(name, string(Results)):
			ext = string(Results)
		case strings.HasSuffix(name, string(Blobs)):
			ext = string(Blobs)
		default:
			// Abandoned temp file (crash between create and rename) —
			// but only if it is actually stale: another process may be
			// mid-Put in this directory right now (a replica restarting
			// over a live shard), and deleting its temp file would fail
			// that write.
			if info, err := de.Info(); err == nil && time.Since(info.ModTime()) > tempFileGrace {
				os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		if !validKey(strings.TrimSuffix(name, ext)) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		seeds = append(seeds, seed{name: name, size: info.Size(), mod: info.ModTime()})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mod.Before(seeds[j].mod) })
	for _, sd := range seeds {
		e := &storeEntry{name: sd.name, size: sd.size}
		e.elem = s.lru.PushFront(e)
		s.byName[sd.name] = e
		s.bytes += sd.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// validKey accepts only lowercase-hex content hashes: store keys double as
// file names, so anything else (path separators, dots) is rejected outright.
func validKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *DiskStore) path(name string) string { return filepath.Join(s.dir, name) }

// GetRaw returns the bytes stored under key in namespace ns, bumping their
// recency. accept, when non-nil, vets them: bytes it rejects are a corrupt
// entry, forgotten and removed so they get rebuilt and rewritten, and the
// lookup is a miss — as is a missing or unreadable file.
func (s *DiskStore) GetRaw(ns Namespace, key string, accept func([]byte) error) ([]byte, bool) {
	name := key + string(ns)
	s.mu.Lock()
	e := s.byName[name] // only valid keys are ever indexed
	if e != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if e == nil {
		s.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(s.path(name))
	if err == nil && accept != nil {
		err = accept(data)
	}
	if err != nil {
		s.drop(name)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return data, true
}

// PutRaw durably stores data under key in namespace ns — written to a
// temp file in the same directory, fsynced, then renamed into place — then
// evicts least-recently-used entries until the store fits its byte bound
// again (the entry just written is always kept).
func (s *DiskStore) PutRaw(ns Namespace, key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("service: store put: invalid key %q", key)
	}
	name := key + string(ns)
	tmp, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("service: store put: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, s.path(name))
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("service: store put: %w", err)
	}

	s.mu.Lock()
	if e := s.byName[name]; e != nil {
		s.bytes += int64(len(data)) - e.size
		e.size = int64(len(data))
		s.lru.MoveToFront(e.elem)
	} else {
		e := &storeEntry{name: name, size: int64(len(data))}
		e.elem = s.lru.PushFront(e)
		s.byName[name] = e
		s.bytes += e.size
	}
	s.evictLocked()
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// Get returns the stored result for key, if present and decodable.
func (s *DiskStore) Get(key string) (*pipeline.Stats, bool) {
	var st *pipeline.Stats
	if _, ok := s.GetRaw(Results, key, func(b []byte) error {
		st = new(pipeline.Stats)
		return json.Unmarshal(b, st)
	}); !ok {
		return nil, false
	}
	return st, true
}

// Put durably stores st under key.
func (s *DiskStore) Put(key string, st *pipeline.Stats) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("service: store put: %w", err)
	}
	return s.PutRaw(Results, key, data)
}

// GetBlob returns the binary artifact stored under key (see PutBlob).
// Payload integrity is the caller's concern — sampling plan files carry
// their own magic, version and bounds checks, and a decode failure there
// simply falls back to a rebuild.
func (s *DiskStore) GetBlob(key string) ([]byte, bool) { return s.GetRaw(Blobs, key, nil) }

// PutBlob durably stores an opaque binary artifact under key, sharing the
// result store's recency order and byte bound but not its key namespace.
func (s *DiskStore) PutBlob(key string, data []byte) error { return s.PutRaw(Blobs, key, data) }

// drop forgets and deletes one entry (unreadable or corrupt file).
func (s *DiskStore) drop(name string) {
	s.mu.Lock()
	if e := s.byName[name]; e != nil {
		s.lru.Remove(e.elem)
		delete(s.byName, name)
		s.bytes -= e.size
	}
	s.mu.Unlock()
	os.Remove(s.path(name))
}

// evictLocked deletes least-recently-used entries until the byte bound
// holds, always keeping at least the most recent entry. Callers hold s.mu.
func (s *DiskStore) evictLocked() {
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		elem := s.lru.Back()
		e := elem.Value.(*storeEntry)
		s.lru.Remove(elem)
		delete(s.byName, e.name)
		s.bytes -= e.size
		os.Remove(s.path(e.name))
		s.evictions.Add(1)
	}
}

// Len returns the number of stored entries (results and blobs).
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byName)
}

// Bytes returns the total size of stored data (results and blobs).
func (s *DiskStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// StoreStats is a point-in-time summary of store activity, exported on
// /metrics.
type StoreStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"maxBytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// Stats summarises the store's activity since open.
func (s *DiskStore) Stats() StoreStats {
	s.mu.Lock()
	entries, bytes := len(s.byName), s.bytes
	s.mu.Unlock()
	return StoreStats{
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  s.maxBytes,
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
	}
}
