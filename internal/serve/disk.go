package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/profile"
)

// Disk-tier metrics. Writes happen on upload (write-through), so a RAM
// eviction is a pure demotion — the flat file is already on disk.
// Promotions are cold Acquire hits served by mmapping a flat file;
// mmap_failures count files that existed but could not be mapped or
// validated, and verify_failures files found at startup whose bytes do
// not hash to their name. Both are unlinked, since the tier is a cache
// of reconstructible artefacts, not the system of record.
var (
	mDiskWrites      = obs.NewCounter("serve.store.disk.writes")
	mDiskWriteErrors = obs.NewCounter("serve.store.disk.write_errors")
	mDiskDemotions   = obs.NewCounter("serve.store.disk.demotions")
	mDiskPromotions  = obs.NewCounter("serve.store.disk.promotions")
	mDiskEvictions   = obs.NewCounter("serve.store.disk.evictions")
	mDiskMmapFail    = obs.NewCounter("serve.store.disk.mmap_failures")
	mDiskVerifyFail  = obs.NewCounter("serve.store.disk.verify_failures")
	mDiskBytes       = obs.NewGauge("serve.store.disk.bytes")
	mDiskFiles       = obs.NewGauge("serve.store.disk.files")
)

// flatExt is the on-disk extension of flat-encoded profiles.
const flatExt = ".mfp"

// tmpPattern names the temp files write renames into place. One left by
// a crash before its rename is swept when the tier is next opened.
const tmpPattern = "put-*" + flatExt + ".tmp"

// diskFile is one resident flat file, tracked in the tier's LRU.
// verified is false for a file indexed at startup until its first open
// has checked that it hashes to its name; a file this process wrote is
// verified from the start, since putFlat hashed exactly those bytes.
type diskFile struct {
	id       string
	size     int64 // file size on disk
	verified bool
}

// diskTier is the store's second level: content-addressed flat profile
// files under one directory, bounded by a byte budget with LRU
// eviction. Every uploaded profile is written through immediately, so
// RAM eviction never copies anything; a cold Acquire promotes a file
// back by memory-mapping it, which costs a header parse rather than a
// decode. Files are unlinked while possibly still mapped by in-flight
// streams — safe on unix, where the mapping keeps the pages alive.
type diskTier struct {
	dir    string
	budget int64 // <= 0 means unlimited

	mu    sync.Mutex
	bytes int64
	files map[string]*list.Element // id -> element holding diskFile
	lru   *list.List
}

// newDiskTier opens (creating if needed) the tier directory and indexes
// any flat files already present — a daemon restarted with the same
// -disk-dir keeps serving its previously uploaded profiles. Their names
// are not trusted: each file is verified against its name on first
// open, so a file left by a build with another addressing scheme is
// dropped then. Stale temp files (tmpPattern) are deleted.
func newDiskTier(dir string, budget int64) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk tier: %w", err)
	}
	d := &diskTier{
		dir:    dir,
		budget: budget,
		files:  make(map[string]*list.Element),
		lru:    list.New(),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: disk tier: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if ok, _ := filepath.Match(tmpPattern, name); ok {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, flatExt) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		id := strings.TrimSuffix(name, flatExt)
		d.files[id] = d.lru.PushBack(&diskFile{id: id, size: info.Size()})
		d.bytes += info.Size()
	}
	d.mu.Lock()
	d.enforceBudgetLocked()
	d.updateGauges()
	d.mu.Unlock()
	return d, nil
}

func (d *diskTier) path(id string) string { return filepath.Join(d.dir, id+flatExt) }

// write persists buf, the flat encoding of profile id, as a file
// keyed by id, unless a verified one already exists (then it only
// refreshes recency). The file is written to a temp name and renamed,
// so readers never observe a partial file.
func (d *diskTier) write(id string, buf []byte) error {
	d.mu.Lock()
	if el, ok := d.files[id]; ok && el.Value.(*diskFile).verified {
		d.lru.MoveToFront(el)
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()

	tmp, err := os.CreateTemp(d.dir, tmpPattern)
	if err != nil {
		mDiskWriteErrors.Inc()
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		mDiskWriteErrors.Inc()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		mDiskWriteErrors.Inc()
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(id)); err != nil {
		os.Remove(tmp.Name())
		mDiskWriteErrors.Inc()
		return err
	}

	d.mu.Lock()
	if el, ok := d.files[id]; ok { // a concurrent write, or the unverified file just replaced
		d.bytes -= el.Value.(*diskFile).size
		d.lru.Remove(el)
	}
	d.files[id] = d.lru.PushFront(&diskFile{id: id, size: int64(len(buf)), verified: true})
	d.bytes += int64(len(buf))
	d.enforceBudgetLocked()
	d.updateGauges()
	d.mu.Unlock()
	mDiskWrites.Inc()
	return nil
}

// open maps the flat file for id, returning nil when the tier has no
// such file. The open skips per-section CRC verification: a file this
// process wrote holds the bytes putFlat hashed to id, and a file
// indexed at startup is hashed against id on its first open, which
// subsumes the checksums. Structural validation still runs. A file
// that fails either check is dropped from the tier rather than served.
func (d *diskTier) open(id string) *profile.Flat {
	d.mu.Lock()
	el, ok := d.files[id]
	var verified bool
	if ok {
		d.lru.MoveToFront(el)
		verified = el.Value.(*diskFile).verified
	}
	d.mu.Unlock()
	if !ok {
		return nil
	}
	f, err := profile.OpenFlatFile(d.path(id), profile.FlatNoVerify())
	if err != nil {
		mDiskMmapFail.Inc()
		d.remove(id)
		return nil
	}
	if verified {
		return f
	}
	if flatID(f.Bytes()) != id {
		f.Close()
		mDiskVerifyFail.Inc()
		obs.Logger().Warn("disk tier file does not hash to its name; dropped", "id", id)
		d.remove(id)
		return nil
	}
	d.mu.Lock()
	if el, ok := d.files[id]; ok {
		el.Value.(*diskFile).verified = true
	}
	d.mu.Unlock()
	return f
}

// remove drops id's file from the index and the filesystem.
func (d *diskTier) remove(id string) {
	d.mu.Lock()
	if el, ok := d.files[id]; ok {
		d.bytes -= el.Value.(*diskFile).size
		d.lru.Remove(el)
		delete(d.files, id)
	}
	d.updateGauges()
	d.mu.Unlock()
	os.Remove(d.path(id))
}

// enforceBudgetLocked unlinks least-recently-used files until the tier
// fits its budget. Caller holds d.mu. Unlinking is safe even while a
// promoted mapping of the file is live.
func (d *diskTier) enforceBudgetLocked() {
	if d.budget <= 0 {
		return
	}
	for d.bytes > d.budget {
		el := d.lru.Back()
		if el == nil {
			return
		}
		f := el.Value.(*diskFile)
		d.lru.Remove(el)
		delete(d.files, f.id)
		d.bytes -= f.size
		os.Remove(d.path(f.id))
		mDiskEvictions.Inc()
	}
}

// has reports whether the tier holds a file for id, without touching
// recency.
func (d *diskTier) has(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[id]
	return ok
}

// ids returns the ids of every file in the tier, in no particular
// order.
func (d *diskTier) ids() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.files))
	for id := range d.files {
		out = append(out, id)
	}
	return out
}

// stats returns the tier's occupancy.
func (d *diskTier) stats() (bytes int64, files int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes, len(d.files)
}

func (d *diskTier) updateGauges() {
	mDiskBytes.Set(float64(d.bytes))
	mDiskFiles.Set(float64(len(d.files)))
}
