package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testTrace builds a small deterministic trace; the seed varies the
// content so different seeds fit to different profiles.
func testTrace(seed uint64, n int) trace.Trace {
	rng := stats.NewRNG(seed)
	tr := make(trace.Trace, 0, n)
	now, addr := uint64(100), uint64(1<<20)
	for i := 0; i < n; i++ {
		now += uint64(rng.Range(1, 100))
		addr += uint64(rng.Range(-4, 8) * 64)
		op := trace.Read
		if rng.Bool(0.3) {
			op = trace.Write
		}
		tr = append(tr, trace.Request{Time: now, Addr: addr, Size: 64, Op: op})
	}
	return tr
}

func testProfile(t testing.TB, seed uint64) *profile.Profile {
	t.Helper()
	p, err := core.Build(fmt.Sprintf("w%d", seed), testTrace(seed, 300), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkAddresses pins every profile s can serve and checks that its
// ID is the SHA-256 of the bytes it holds and Bytes their length.
func checkAddresses(t *testing.T, s *Store) {
	t.Helper()
	for _, m := range s.List() {
		pin, ok := s.Acquire(m.ID)
		if !ok {
			t.Fatalf("listed profile %s does not pin", m.ID)
		}
		buf := pin.View().Bytes()
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != m.ID || pin.Meta().Bytes != int64(len(buf)) {
			t.Errorf("profile %s holds %d bytes hashing to %s, meta says %d bytes", m.ID, len(buf), got, pin.Meta().Bytes)
		}
		pin.Release()
	}
}

func TestStorePutAcquireDedupe(t *testing.T) {
	s := NewStore(4, 0)
	p := testProfile(t, 1)
	meta, added, err := s.Put(p)
	if err != nil || !added {
		t.Fatalf("first Put: added=%v err=%v", added, err)
	}
	if meta.ID == "" || meta.Bytes <= 0 || meta.Requests != 300 {
		t.Fatalf("bad meta: %+v", meta)
	}
	// The address is the SHA-256 of the flat encoding, and the size
	// its length.
	flat, err := profile.MarshalFlat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(flat); meta.ID != hex.EncodeToString(sum[:]) || meta.Bytes != int64(len(flat)) {
		t.Fatalf("Put addressed %s (%d bytes), want sha256 %x of %d flat bytes", meta.ID, meta.Bytes, sum, len(flat))
	}
	if id, size, _ := ProfileID(p); meta.ID != id || meta.Bytes != size {
		t.Fatalf("Put addressed %s (%d bytes), ProfileID %s (%d bytes)", meta.ID, meta.Bytes, id, size)
	}

	// The same content re-uploaded (even as a distinct decoded value)
	// dedupes to the same ID without growing the store.
	again := testProfile(t, 1)
	meta2, added2, err := s.Put(again)
	if err != nil || added2 {
		t.Fatalf("dedupe Put: added=%v err=%v", added2, err)
	}
	if meta2.ID != meta.ID || s.Len() != 1 {
		t.Fatalf("dedupe changed identity: %s vs %s, len=%d", meta2.ID, meta.ID, s.Len())
	}

	pin, ok := s.Acquire(meta.ID)
	if !ok {
		t.Fatal("Acquire missed a resident profile")
	}
	if pin.Meta().ID != meta.ID || pin.View() == nil {
		t.Fatal("pin carries wrong entry")
	}
	pin.Release()
	pin.Release() // idempotent
	checkAddresses(t, s)

	if _, ok := s.Acquire("no-such-id"); ok {
		t.Fatal("Acquire invented a profile")
	}
}

// TestStorePutCopiesProfile pins that the store keeps its own copy of
// an upload: mutating the caller's *Profile after Put changes neither
// what the pin synthesizes nor the address it is served under.
func TestStorePutCopiesProfile(t *testing.T) {
	s := NewStore(1, 0)
	p := testProfile(t, 5)
	meta, _, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Leaves[0].StartAddr += 1 << 30
	mutated := false
	for i := range p.Leaves {
		if m := &p.Leaves[i].Stride; !m.Constant {
			m.Vals[len(m.Vals)-1] += 4096 // the largest value stays largest
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("test profile has no Markov stride model to mutate")
	}

	pin, ok := s.Acquire(meta.ID)
	if !ok {
		t.Fatal("Acquire missed a resident profile")
	}
	defer pin.Release()
	got := drainPin(pin, 9)

	orig := testProfile(t, 5)
	if id, _, _ := ProfileID(orig); id != meta.ID {
		t.Fatalf("unmutated profile addresses to %s, stored under %s", id, meta.ID)
	}
	src := core.SynthesizeFrom(orig, 9)
	want := trace.Collect(src, 0)
	if c, ok := src.(interface{ Close() }); ok {
		c.Close()
	}
	if len(got) != len(want) {
		t.Fatalf("pinned stream has %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d: pinned %+v, offline %+v", i, got[i], want[i])
		}
	}
}

func TestStoreListAndMeta(t *testing.T) {
	s := NewStore(4, 0)
	var ids []string
	for seed := uint64(1); seed <= 5; seed++ {
		m, _, err := s.Put(testProfile(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
	}
	all := s.List()
	if len(all) != 5 {
		t.Fatalf("List returned %d profiles, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatal("List is not sorted by ID")
		}
	}
	for _, id := range ids {
		if _, ok := s.Meta(id); !ok {
			t.Fatalf("Meta missed %s", id)
		}
	}
}

// A single-shard store makes LRU order deterministic: filling past the
// budget evicts the least recently used profile, never exceeding the
// budget.
func TestStoreLRUEviction(t *testing.T) {
	p1, p2, p3 := testProfile(t, 1), testProfile(t, 2), testProfile(t, 3)
	_, s1, _ := ProfileID(p1)
	_, s2, _ := ProfileID(p2)
	_, s3, _ := ProfileID(p3)
	budget := s1 + s2 + s3/2 // room for two, not three
	s := NewStore(1, budget)

	m1, _, err := s.Put(p1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := s.Put(p2)
	if err != nil {
		t.Fatal(err)
	}
	// Touch p1 so p2 is the LRU victim.
	if pin, ok := s.Acquire(m1.ID); ok {
		pin.Release()
	} else {
		t.Fatal("p1 missing")
	}
	m3, _, err := s.Put(p3)
	if err != nil {
		t.Fatalf("Put p3 should evict p2: %v", err)
	}
	if s.Bytes() > budget {
		t.Fatalf("store holds %d bytes over budget %d", s.Bytes(), budget)
	}
	if _, ok := s.Meta(m2.ID); ok {
		t.Fatal("LRU entry p2 survived eviction")
	}
	for _, id := range []string{m1.ID, m3.ID} {
		if _, ok := s.Meta(id); !ok {
			t.Fatalf("%s was wrongly evicted", id)
		}
	}
}

// Pinned profiles are never evicted: when everything resident is
// pinned and the budget is exhausted, Put fails with ErrStoreFull
// instead.
func TestStorePinnedNeverEvicted(t *testing.T) {
	p1, p2 := testProfile(t, 1), testProfile(t, 2)
	_, s1, _ := ProfileID(p1)
	_, s2, _ := ProfileID(p2)
	s := NewStore(1, max(s1, s2)+1) // room for either profile, never both

	m1, _, err := s.Put(p1)
	if err != nil {
		t.Fatal(err)
	}
	pin, ok := s.Acquire(m1.ID)
	if !ok {
		t.Fatal("p1 missing")
	}
	if _, _, err := s.Put(p2); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("Put over a fully-pinned store: err=%v, want ErrStoreFull", err)
	}
	if _, ok := s.Meta(m1.ID); !ok {
		t.Fatal("pinned profile was evicted")
	}
	pin.Release()
	if _, _, err := s.Put(p2); err != nil {
		t.Fatalf("Put after release should evict p1: %v", err)
	}
	if _, ok := s.Meta(m1.ID); ok {
		t.Fatal("released profile survived eviction under pressure")
	}
}

func TestStoreRejectsOversizedProfile(t *testing.T) {
	s := NewStore(1, 16) // budget smaller than any profile
	if _, _, err := s.Put(testProfile(t, 1)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("err=%v, want ErrStoreFull", err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("rejected profile left residue")
	}
}

// Property test: under a random mix of put/acquire/release across
// shards, the store never exceeds its budget and pinned profiles are
// always retrievable.
func TestStoreBudgetProperty(t *testing.T) {
	profiles := make([]*profile.Profile, 12)
	var sizes int64
	for i := range profiles {
		profiles[i] = testProfile(t, uint64(i+1))
		_, sz, err := ProfileID(profiles[i])
		if err != nil {
			t.Fatal(err)
		}
		sizes += sz
	}
	budget := sizes / 3
	s := NewStore(4, budget)
	rng := rand.New(rand.NewSource(99))
	var pins []*Pin
	pinned := make(map[*Pin]string)
	for step := 0; step < 2000; step++ {
		switch rng.Intn(3) {
		case 0:
			_, _, err := s.Put(profiles[rng.Intn(len(profiles))])
			if err != nil && !errors.Is(err, ErrStoreFull) {
				t.Fatal(err)
			}
		case 1:
			all := s.List()
			if len(all) > 0 {
				id := all[rng.Intn(len(all))].ID
				if pin, ok := s.Acquire(id); ok {
					pins = append(pins, pin)
					pinned[pin] = id
				}
			}
		case 2:
			if len(pins) > 0 {
				i := rng.Intn(len(pins))
				pin := pins[i]
				pin.Release()
				delete(pinned, pin)
				pins = append(pins[:i], pins[i+1:]...)
			}
		}
		if got := s.Bytes(); got > budget {
			t.Fatalf("step %d: store holds %d bytes over budget %d", step, got, budget)
		}
		for pin, id := range pinned {
			if _, ok := s.Meta(id); !ok {
				t.Fatalf("step %d: pinned profile %s evicted", step, id)
			}
			if pin.Meta().ID != id {
				t.Fatalf("step %d: pin identity changed", step)
			}
		}
	}
}

// Race-detector test: concurrent uploads, acquires, releases, metadata
// reads and evictions across shards.
func TestStoreConcurrent(t *testing.T) {
	profiles := make([]*profile.Profile, 8)
	var sizes int64
	for i := range profiles {
		profiles[i] = testProfile(t, uint64(i+1))
		_, sz, err := ProfileID(profiles[i])
		if err != nil {
			t.Fatal(err)
		}
		sizes += sz
	}
	s := NewStore(4, sizes/2) // tight enough to force evictions
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for step := 0; step < 300; step++ {
				p := profiles[rng.Intn(len(profiles))]
				switch rng.Intn(4) {
				case 0:
					if _, _, err := s.Put(p); err != nil && !errors.Is(err, ErrStoreFull) {
						t.Error(err)
						return
					}
				case 1:
					id, _, _ := ProfileID(p)
					if pin, ok := s.Acquire(id); ok {
						if pin.View() == nil {
							t.Error("pin with nil profile")
						}
						pin.Release()
					}
				case 2:
					id, _, _ := ProfileID(p)
					s.Meta(id)
				case 3:
					s.List()
					s.Bytes()
					s.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}
