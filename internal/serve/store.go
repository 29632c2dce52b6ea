// Package serve turns the Mocktails pipeline into a long-running
// service: a sharded, reference-counted, content-addressed store of
// statistical profiles plus an HTTP API that fits uploaded traces
// in-process and streams synthetic traces chunk-by-chunk to clients.
// The profile is exactly the artefact the paper argues is shareable
// where the raw trace is not — a server holds it resident once and
// amortises the fit across arbitrarily many cheap synthesis replays.
package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/profile"
)

// Store metrics. Hits/misses count Acquire outcomes; uploads and
// dedupe_hits count Put outcomes; evictions and rejected count the
// byte-budget enforcement paths. The gauges track current occupancy.
var (
	mStoreHits     = obs.NewCounter("serve.store.hits")
	mStoreMisses   = obs.NewCounter("serve.store.misses")
	mStoreUploads  = obs.NewCounter("serve.store.uploads")
	mStoreDedupe   = obs.NewCounter("serve.store.dedupe_hits")
	mStoreEvicted  = obs.NewCounter("serve.store.evictions")
	mStoreRejected = obs.NewCounter("serve.store.rejected")
	mStoreBytes    = obs.NewGauge("serve.store.bytes")
	mStoreProfiles = obs.NewGauge("serve.store.profiles")
)

// DefaultShards is the default shard count of a Store.
const DefaultShards = 16

// ErrStoreFull reports that a profile cannot be admitted because the
// byte budget is exhausted and everything evictable has been evicted
// (the remaining residents are pinned by in-flight streams, or the
// profile alone exceeds a shard's budget).
var ErrStoreFull = errors.New("serve: store budget exhausted")

// Meta describes one stored profile. ID is the hex SHA-256 of the
// flat bytes the store holds and Bytes is their length — the quantity
// the store's byte budget is accounted in.
type Meta struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Config   string `json:"config"`
	Leaves   int    `json:"leaves"`
	Requests uint64 `json:"requests"`
	Bytes    int64  `json:"bytes"`
}

// entry is one resident profile, always a flat view: over the buffer
// Put encoded for a fresh upload, or over the memory-mapped disk-tier
// file for a cold hit promoted from disk. The two are the same bytes,
// so synthesis and downloads cannot tell them apart. refs counts
// outstanding Pins; an entry with refs > 0 is never evicted (a
// synthesis mid-stream must keep its profile). elem is the entry's
// node in the shard's LRU list.
type entry struct {
	meta Meta
	flat *profile.Flat
	refs int
	elem *list.Element
}

// shard is one lock domain of the store: a map for lookup plus an LRU
// list (front = most recently used) for eviction, guarded by one
// RWMutex. Each shard enforces its own slice of the byte budget, so
// shards never coordinate and the store's total occupancy is bounded by
// the sum of the per-shard budgets.
type shard struct {
	mu      sync.RWMutex
	budget  int64
	bytes   int64
	entries map[string]*entry
	lru     *list.List // of *entry
}

// Store is a sharded, reference-counted, content-addressed profile
// cache. Profiles are keyed by the SHA-256 of the flat bytes it holds
// and serves, so an ID names exactly the bytes synthesis reads. A
// profile's flat encoding is a deterministic function of the profile,
// so identical uploads dedupe regardless of how they were produced
// (pre-fit upload vs in-process fit of the same trace). All methods are
// safe for concurrent use.
type Store struct {
	shards []shard

	// disk is the optional second tier: flat profile files bounded by
	// their own (typically much larger) byte budget. nil for RAM-only
	// stores.
	disk *diskTier

	// totalBytes/totalCount mirror the summed shard occupancy for O(1)
	// reads and gauge updates.
	totalBytes atomic.Int64
	totalCount atomic.Int64
}

// StoreConfig configures a tiered store.
type StoreConfig struct {
	// Shards is the RAM-tier shard count (<= 0 selects DefaultShards).
	Shards int
	// Budget bounds resident profiles in RAM, counted in the flat
	// bytes actually held (Meta.Bytes; <= 0 means unlimited).
	Budget int64
	// DiskDir, when non-empty, enables the disk tier: every upload is
	// written through as a content-addressed flat file, RAM eviction
	// becomes demotion, and a cold Acquire promotes by mmapping the
	// file — so the set of servable profiles is bounded by DiskBudget,
	// not Budget.
	DiskDir string
	// DiskBudget bounds the disk tier's bytes (<= 0 means unlimited).
	DiskBudget int64
}

// NewStore returns a RAM-only store with nshards shards (<= 0 selects
// DefaultShards) and a total byte budget (<= 0 means unlimited). The
// budget is divided evenly across shards; because each shard enforces
// its slice independently, the store as a whole never exceeds budget.
func NewStore(nshards int, budget int64) *Store {
	s, _ := NewTieredStore(StoreConfig{Shards: nshards, Budget: budget})
	return s
}

// NewTieredStore returns a store with the given configuration,
// creating (and re-indexing) the disk-tier directory when one is
// configured. The error is always nil for a RAM-only configuration.
func NewTieredStore(cfg StoreConfig) (*Store, error) {
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = DefaultShards
	}
	s := &Store{shards: make([]shard, nshards)}
	per := int64(0)
	if cfg.Budget > 0 {
		per = cfg.Budget / int64(nshards)
		if per == 0 {
			per = 1
		}
	}
	for i := range s.shards {
		s.shards[i].budget = per
		s.shards[i].entries = make(map[string]*entry)
		s.shards[i].lru = list.New()
	}
	if cfg.DiskDir != "" {
		d, err := newDiskTier(cfg.DiskDir, cfg.DiskBudget)
		if err != nil {
			return nil, err
		}
		s.disk = d
	}
	return s, nil
}

// ProfileID returns the store's content address for v — the hex SHA-256
// of its flat encoding — along with that encoding's size in bytes.
func ProfileID(v profile.View) (id string, size int64, err error) {
	buf, err := profile.MarshalFlat(v)
	if err != nil {
		return "", 0, fmt.Errorf("serve: encoding profile for addressing: %w", err)
	}
	return flatID(buf), int64(len(buf)), nil
}

// flatID is the content address of a flat buffer.
func flatID(buf []byte) string {
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// shardFor maps a profile ID to its shard by FNV-1a.
func (s *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	io.WriteString(h, id)
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Put admits v, returning its metadata and whether it was newly added
// (false means an identical profile was already resident — a dedupe
// hit, which refreshes the entry's recency instead). The store keeps
// its own flat encoding of v, so the caller may reuse or mutate v
// afterwards. When the shard is over budget, least-recently-used
// unpinned entries are evicted to make room; if that cannot free
// enough space, Put returns ErrStoreFull and the store is left
// unchanged.
func (s *Store) Put(v profile.View) (Meta, bool, error) {
	buf, err := profile.MarshalFlat(v)
	if err != nil {
		return Meta{}, false, fmt.Errorf("serve: encoding profile: %w", err)
	}
	return s.putFlat(buf, "")
}

// errAddressMismatch rejects flat bytes offered under an ID they do
// not hash to.
var errAddressMismatch = errors.New("serve: content address mismatch")

// putFlat is the store's one admission path: Put, uploads, replication
// frames and cluster fetches all end here. buf is a flat profile that
// the store owns from here on, addressed by its SHA-256. A non-empty
// claim — the ID a peer sent the bytes under — must equal that hash,
// which is checked before any decode. buf is then opened with every
// check, checksums included. Otherwise it behaves as Put.
func (s *Store) putFlat(buf []byte, claim string) (Meta, bool, error) {
	id := flatID(buf)
	if claim != "" && claim != id {
		return Meta{}, false, fmt.Errorf("%w: bytes hash to %s, not %s", errAddressMismatch, id, claim)
	}
	f, err := profile.OpenFlat(buf)
	if err != nil {
		return Meta{}, false, err
	}
	meta := flatMeta(id, f)
	// Write through to the disk tier before taking the shard lock: once
	// the flat file exists, RAM eviction is a pure demotion (drop the
	// entry, the bytes are already on disk) and never does IO under the
	// lock. A write failure only degrades this profile to RAM-only.
	if s.disk != nil {
		if werr := s.disk.write(id, buf); werr != nil {
			obs.Logger().Warn("disk tier write failed; profile is RAM-only", "id", id, "err", werr)
		}
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[id]; ok {
		sh.lru.MoveToFront(e.elem)
		mStoreDedupe.Inc()
		return e.meta, false, nil
	}
	if err := s.admit(sh, &entry{meta: meta, flat: f}); err != nil {
		return Meta{}, false, err
	}
	mStoreUploads.Inc()
	return meta, true, nil
}

// admit inserts a fully-constructed entry into sh, evicting to make
// room. Caller holds sh.mu.
func (s *Store) admit(sh *shard, e *entry) error {
	size := e.meta.Bytes
	if sh.budget > 0 {
		if size > sh.budget {
			mStoreRejected.Inc()
			return fmt.Errorf("%w: profile is %d bytes, shard budget is %d", ErrStoreFull, size, sh.budget)
		}
		// Evict from the LRU tail, skipping pinned entries: a profile
		// feeding an in-flight stream must stay resident.
		for sh.bytes+size > sh.budget {
			if !s.evictOne(sh) {
				mStoreRejected.Inc()
				return fmt.Errorf("%w: %d bytes resident are pinned by active streams", ErrStoreFull, sh.bytes)
			}
		}
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[e.meta.ID] = e
	sh.bytes += size
	s.totalBytes.Add(size)
	s.totalCount.Add(1)
	s.updateGauges()
	return nil
}

// evictOne removes the least-recently-used unpinned entry of sh,
// reporting whether anything could be evicted. Caller holds sh.mu.
func (s *Store) evictOne(sh *shard) bool {
	for el := sh.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.refs > 0 {
			continue
		}
		s.dropLocked(sh, e)
		mStoreEvicted.Inc()
		return true
	}
	return false
}

// dropLocked removes an unpinned entry from sh, releasing its mapping
// (a no-op for an in-memory buffer) and counting a demotion when a
// disk-tier copy keeps the profile servable. Caller holds sh.mu and
// has checked e.refs == 0.
func (s *Store) dropLocked(sh *shard, e *entry) {
	sh.lru.Remove(e.elem)
	delete(sh.entries, e.meta.ID)
	sh.bytes -= e.meta.Bytes
	s.totalBytes.Add(-e.meta.Bytes)
	s.totalCount.Add(-1)
	e.flat.Close()
	if s.disk != nil && s.disk.has(e.meta.ID) {
		mDiskDemotions.Inc()
	}
	s.updateGauges()
}

// Demote forces the profile out of the RAM tier, leaving any disk-tier
// copy in place: the next Acquire is a cold hit served by mmap. It
// returns false when the profile is not resident or is pinned by an
// active stream. Without a disk tier this is a forced eviction.
func (s *Store) Demote(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[id]
	if !ok || e.refs > 0 {
		return false
	}
	s.dropLocked(sh, e)
	return true
}

// Pin is a reference to a resident profile. The profile is guaranteed
// to stay resident (never evicted) until Release; Release is safe to
// call more than once. A pin from a cold disk-tier hit that could not
// be admitted to RAM (everything resident was pinned) is private: it
// serves this caller only and its mapping is released with the pin.
type Pin struct {
	s       *Store
	sh      *shard
	e       *entry
	private bool
	once    sync.Once
}

// Acquire pins the profile with the given ID, bumping its recency. A
// RAM miss falls through to the disk tier: the flat file is promoted
// by memory-mapping it — a header parse, no decode, no copy — and
// admitted as a resident entry (demoting colder ones as needed). The
// second return is false when neither tier holds the profile.
func (s *Store) Acquire(id string) (*Pin, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if e, ok := sh.entries[id]; ok {
		e.refs++
		sh.lru.MoveToFront(e.elem)
		sh.mu.Unlock()
		mStoreHits.Inc()
		return &Pin{s: s, sh: sh, e: e}, true
	}
	sh.mu.Unlock()
	if s.disk == nil {
		mStoreMisses.Inc()
		return nil, false
	}
	// Cold hit: map the file outside the lock (the open is O(header),
	// but still IO), then re-check — a concurrent Acquire may have
	// promoted the same profile while we were mapping.
	f := s.disk.open(id)
	if f == nil {
		mStoreMisses.Inc()
		return nil, false
	}
	e := &entry{meta: flatMeta(id, f), flat: f}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prior, ok := sh.entries[id]; ok {
		f.Close()
		prior.refs++
		sh.lru.MoveToFront(prior.elem)
		mStoreHits.Inc()
		return &Pin{s: s, sh: sh, e: prior}, true
	}
	mStoreMisses.Inc() // it was not resident, even though the disk saved it
	mDiskPromotions.Inc()
	if err := s.admit(sh, e); err != nil {
		// RAM is wedged with pinned entries; serve this caller from a
		// private mapping rather than failing a profile the store holds.
		e.refs = 1
		return &Pin{s: s, sh: sh, e: e, private: true}, true
	}
	e.refs++
	return &Pin{s: s, sh: sh, e: e}, true
}

// flatMeta builds store metadata from a flat profile's header, for
// both a fresh upload (putFlat hashed the bytes to id) and a disk-tier
// promotion (the file was hashed to id when written or on its first
// open).
func flatMeta(id string, f *profile.Flat) Meta {
	name, config := f.Header()
	return Meta{
		ID:       id,
		Name:     name,
		Config:   config,
		Leaves:   f.NumLeaves(),
		Requests: uint64(f.Requests()),
		Bytes:    int64(f.Size()),
	}
}

// View returns the pinned profile's flat view. Synthesis and the gzip
// encoder read it in place, and Bytes is its exact flat encoding. The
// view must not be used after Release.
func (p *Pin) View() *profile.Flat { return p.e.flat }

// Meta returns the pinned profile's metadata.
func (p *Pin) Meta() Meta { return p.e.meta }

// Release drops the pin, making the profile evictable again once no
// other pins remain. Releasing a private pin unmaps its file.
func (p *Pin) Release() {
	p.once.Do(func() {
		if p.private {
			p.e.flat.Close()
			return
		}
		p.sh.mu.Lock()
		p.e.refs--
		p.sh.mu.Unlock()
	})
}

// refs reports the current pin count of a RAM-resident profile, or -1
// when it is not resident. It exists as the white-box test hook for
// pin accounting: tests must go through it instead of reaching into
// shardFor/entries directly, so shard-map refactors (e.g. extending
// the FNV map outward to a cluster ring) cannot silently change what
// the tests measure.
func (s *Store) refs(id string) int {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e, ok := sh.entries[id]; ok {
		return e.refs
	}
	return -1
}

// Meta returns the metadata of the profile with the given ID without
// pinning it or promoting it into RAM. A profile demoted to the disk
// tier answers from its flat header (an mmap + header parse).
func (s *Store) Meta(id string) (Meta, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.entries[id]
	if ok {
		m := e.meta
		sh.mu.RUnlock()
		return m, true
	}
	sh.mu.RUnlock()
	if s.disk == nil {
		return Meta{}, false
	}
	return s.diskMeta(id)
}

// diskMeta reads a disk-tier profile's metadata from its flat header.
func (s *Store) diskMeta(id string) (Meta, bool) {
	f := s.disk.open(id)
	if f == nil {
		return Meta{}, false
	}
	m := flatMeta(id, f)
	f.Close()
	return m, true
}

// List returns the metadata of every servable profile — RAM residents
// plus profiles currently demoted to the disk tier — ordered by ID.
func (s *Store) List() []Meta {
	var all []Meta
	resident := make(map[string]bool)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			all = append(all, e.meta)
			resident[e.meta.ID] = true
		}
		sh.mu.RUnlock()
	}
	if s.disk != nil {
		for _, id := range s.disk.ids() {
			if resident[id] {
				continue
			}
			if m, ok := s.diskMeta(id); ok {
				all = append(all, m)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// Bytes returns the total flat-encoded bytes resident in RAM.
func (s *Store) Bytes() int64 { return s.totalBytes.Load() }

// Len returns the number of profiles resident in RAM.
func (s *Store) Len() int { return int(s.totalCount.Load()) }

// DiskStats returns the disk tier's occupancy: flat-file bytes and
// file count. Both are zero for a RAM-only store.
func (s *Store) DiskStats() (bytes int64, files int) {
	if s.disk == nil {
		return 0, 0
	}
	return s.disk.stats()
}

func (s *Store) updateGauges() {
	mStoreBytes.Set(float64(s.totalBytes.Load()))
	mStoreProfiles.Set(float64(s.totalCount.Load()))
}
