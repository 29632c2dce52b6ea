package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func newDiskStore(t *testing.T, budget, diskBudget int64) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewTieredStore(StoreConfig{Shards: 1, Budget: budget, DiskDir: dir, DiskBudget: diskBudget})
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// drain synthesizes the full stream from a pinned profile view.
func drainPin(pin *Pin, seed uint64) trace.Trace {
	src := synth.NewFrom(pin.View(), seed)
	defer src.Close()
	return trace.Collect(src, 0)
}

func TestDiskTierWriteThrough(t *testing.T) {
	s, dir := newDiskStore(t, 0, 0)
	p := testProfile(t, 1)
	meta, _, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, meta.ID+flatExt)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("write-through flat file missing: %v", err)
	}
	bytes, files := s.DiskStats()
	if files != 1 || bytes <= 0 {
		t.Fatalf("disk stats = %d bytes / %d files, want 1 nonempty file", bytes, files)
	}
}

func TestDiskTierDemotePromoteByteIdentical(t *testing.T) {
	s, _ := newDiskStore(t, 0, 0)
	p := testProfile(t, 2)
	meta, _, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	pin, ok := s.Acquire(meta.ID)
	if !ok {
		t.Fatal("warm acquire missed")
	}
	warm := append([]byte(nil), pin.View().Bytes()...)
	want := drainPin(pin, 42)
	pin.Release()

	if !s.Demote(meta.ID) {
		t.Fatal("Demote refused an unpinned resident")
	}
	if s.Len() != 0 {
		t.Fatalf("RAM tier holds %d entries after demotion", s.Len())
	}

	// Cold hit: promoted from disk as a mapping of the same bytes Put
	// encoded, so the stream it feeds is byte-identical too.
	pin2, ok := s.Acquire(meta.ID)
	if !ok {
		t.Fatal("cold acquire missed a disk-tier profile")
	}
	defer pin2.Release()
	if !bytes.Equal(pin2.View().Bytes(), warm) {
		t.Fatal("promoted mapping differs from the buffer Put encoded")
	}
	if pin2.Meta() != meta {
		t.Fatalf("promoted meta %+v != uploaded meta %+v", pin2.Meta(), meta)
	}
	got := drainPin(pin2, 42)
	if len(got) != len(want) {
		t.Fatalf("cold stream has %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d differs cold vs warm: %+v vs %+v", i, got[i], want[i])
		}
	}
	if s.Len() != 1 {
		t.Fatalf("promotion did not admit the entry: Len=%d", s.Len())
	}
}

func TestDiskTierBudgetDemotesColdest(t *testing.T) {
	p1, p2 := testProfile(t, 3), testProfile(t, 4)
	_, size1, err := ProfileID(p1)
	if err != nil {
		t.Fatal(err)
	}
	_, size2, err := ProfileID(p2)
	if err != nil {
		t.Fatal(err)
	}
	// A RAM budget that fits either profile but not both forces the
	// second Put to demote the first; both stay servable via disk.
	budget := size1 + size2 - 1
	s, _ := newDiskStore(t, budget, 0)
	m1, _, err := s.Put(p1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := s.Put(p2)
	if err != nil {
		t.Fatalf("second Put should demote, not fail: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("RAM tier holds %d entries, want 1", s.Len())
	}
	for _, id := range []string{m1.ID, m2.ID} {
		pin, ok := s.Acquire(id)
		if !ok {
			t.Fatalf("profile %s not servable after demotion", id)
		}
		pin.Release()
	}
	if _, files := s.DiskStats(); files != 2 {
		t.Fatalf("disk tier holds %d files, want 2", files)
	}
}

func TestDiskTierBudgetEvictsFiles(t *testing.T) {
	s, dir := newDiskStore(t, 0, 1) // 1-byte disk budget: nothing sticks
	p := testProfile(t, 5)
	meta, _, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, files := s.DiskStats(); files != 0 {
		t.Fatalf("disk tier kept %d files over budget", files)
	}
	if _, err := os.Stat(filepath.Join(dir, meta.ID+flatExt)); !os.IsNotExist(err) {
		t.Fatalf("over-budget flat file not unlinked: %v", err)
	}
	// Still resident in RAM, so still servable.
	if pin, ok := s.Acquire(meta.ID); !ok {
		t.Fatal("RAM entry lost")
	} else {
		pin.Release()
	}
}

func TestDiskTierReindexOnRestart(t *testing.T) {
	s, dir := newDiskStore(t, 0, 0)
	p := testProfile(t, 6)
	meta, _, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	pin, ok := s.Acquire(meta.ID)
	if !ok {
		t.Fatal("acquire missed")
	}
	want := drainPin(pin, 9)
	pin.Release()

	// A new store over the same directory — a daemon restart — serves
	// the profile cold from the re-indexed file.
	s2, err := NewTieredStore(StoreConfig{Shards: 1, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, files := s2.DiskStats(); files != 1 {
		t.Fatalf("restart indexed %d files, want 1", files)
	}
	metas := s2.List()
	if len(metas) != 1 || metas[0] != meta {
		t.Fatalf("restart List = %+v, want [%+v]", metas, meta)
	}
	pin2, ok := s2.Acquire(meta.ID)
	if !ok {
		t.Fatal("restarted store missed the profile")
	}
	defer pin2.Release()
	got := drainPin(pin2, 9)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restarted stream differs at request %d", i)
		}
	}
}

// A temp file left by a crash between write and rename is deleted when
// the tier is next opened, and never counted as a resident file; other
// files in the directory are left alone.
func TestDiskTierSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "put-123456"+flatExt+".tmp")
	other := filepath.Join(dir, "notes.txt")
	for _, path := range []string{stale, other} {
		if err := os.WriteFile(path, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewTieredStore(StoreConfig{Shards: 1, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the startup scan: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("unrelated file removed: %v", err)
	}
	if bytes, files := s.DiskStats(); files != 0 || bytes != 0 {
		t.Fatalf("disk stats = %d bytes / %d files, want empty", bytes, files)
	}
}

func TestDiskTierDemotedVisibleInMetaAndList(t *testing.T) {
	s, _ := newDiskStore(t, 0, 0)
	p := testProfile(t, 7)
	meta, _, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Demote(meta.ID) {
		t.Fatal("Demote failed")
	}
	got, ok := s.Meta(meta.ID)
	if !ok || got != meta {
		t.Fatalf("Meta after demotion = %+v ok=%v, want %+v", got, ok, meta)
	}
	metas := s.List()
	if len(metas) != 1 || metas[0] != meta {
		t.Fatalf("List after demotion = %+v", metas)
	}
}

func TestDiskTierPinnedBlocksDemote(t *testing.T) {
	s, _ := newDiskStore(t, 0, 0)
	meta, _, err := s.Put(testProfile(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	pin, _ := s.Acquire(meta.ID)
	if s.Demote(meta.ID) {
		t.Fatal("Demote evicted a pinned entry")
	}
	pin.Release()
	if !s.Demote(meta.ID) {
		t.Fatal("Demote failed after release")
	}
}

func TestDiskTierCorruptFileDropped(t *testing.T) {
	s, dir := newDiskStore(t, 0, 0)
	meta, _, err := s.Put(testProfile(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	s.Demote(meta.ID)
	// Structural damage (truncation) must not be served; the file is
	// dropped from the tier and the acquire is a clean miss.
	path := filepath.Join(dir, meta.ID+flatExt)
	if err := os.Truncate(path, 16); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Acquire(meta.ID); ok {
		t.Fatal("corrupt flat file served")
	}
	if _, files := s.DiskStats(); files != 0 {
		t.Fatalf("corrupt file kept in index: %d files", files)
	}
}

// A file indexed at startup is not trusted by name: Crypto1's bytes
// copied over HEVC1's file are caught on the first open, unlinked and
// counted, and Acquire misses instead of serving Crypto1 as HEVC1.
func TestDiskTierSubstitutedFileDropped(t *testing.T) {
	s, dir := newDiskStore(t, 0, 0)
	ids := map[string]string{}
	var hevc *profile.Profile
	for _, name := range []string{"HEVC1", "Crypto1"} {
		spec, err := workloads.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Build(name, spec.Gen(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		meta, _, err := s.Put(p)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = meta.ID
		if name == "HEVC1" {
			hevc = p
		}
	}
	crypto, err := os.ReadFile(filepath.Join(dir, ids["Crypto1"]+flatExt))
	if err != nil {
		t.Fatal(err)
	}
	hevcPath := filepath.Join(dir, ids["HEVC1"]+flatExt)
	if err := os.WriteFile(hevcPath, crypto, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewTieredStore(StoreConfig{Shards: 1, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	before := mDiskVerifyFail.Value()
	if pin, ok := s2.Acquire(ids["HEVC1"]); ok {
		pin.Release()
		t.Fatalf("substituted file served as HEVC1 (%s)", pin.Meta().Name)
	}
	if got := mDiskVerifyFail.Value() - before; got != 1 {
		t.Fatalf("verify_failures rose by %d, want 1", got)
	}
	if _, err := os.Stat(hevcPath); !os.IsNotExist(err) {
		t.Fatalf("substituted file not unlinked: %v", err)
	}
	// The honest file still verifies and serves.
	pin, ok := s2.Acquire(ids["Crypto1"])
	if !ok {
		t.Fatal("honest file missed after restart")
	}
	pin.Release()
	checkAddresses(t, s2)

	// An upload of the real profile replaces a substituted file that
	// has not been opened yet, so the profile survives demotion.
	if err := os.WriteFile(hevcPath, crypto, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := NewTieredStore(StoreConfig{Shards: 1, DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s3.Put(hevc); err != nil || !s3.Demote(ids["HEVC1"]) {
		t.Fatalf("re-upload and demote of HEVC1 failed: %v", err)
	}
	pin, ok = s3.Acquire(ids["HEVC1"])
	if !ok || pin.Meta().Name != "HEVC1" {
		t.Fatalf("re-uploaded HEVC1 not served from its rewritten file (ok=%v)", ok)
	}
	pin.Release()
	checkAddresses(t, s3)
}

// A version-1 flat file left in the disk directory by an older build
// cannot be opened by this one. Its first open drops and unlinks it and
// counts an mmap failure; its ID then misses with 404 on every endpoint,
// never a 500.
func TestDiskTierDropsVersion1File(t *testing.T) {
	dir := t.TempDir()
	buf, err := profile.MarshalFlat(testProfile(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	// The opener checks the version field right after the magic, so a
	// current buffer relabelled version 1 stands in for an old file.
	binary.LittleEndian.PutUint32(buf[4:], 1)
	id := flatID(buf)
	path := filepath.Join(dir, id+flatExt)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DiskDir: dir})
	before := mDiskMmapFail.Value()
	for _, c := range []struct{ method, path string }{
		{"GET", "/v1/profiles/" + id},
		{"GET", "/v1/profiles/" + id + "?download=1"},
		{"POST", "/v1/profiles/" + id + "/synth?seed=1"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", c.method, c.path, resp.StatusCode)
		}
	}
	if got := mDiskMmapFail.Value() - before; got != 1 {
		t.Fatalf("mmap_failures rose by %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("version-1 file not unlinked: %v", err)
	}
}
