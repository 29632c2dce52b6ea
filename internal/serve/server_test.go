package serve

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func gzProfileBody(t *testing.T, p *profile.Profile) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.WriteGzip(&buf, p); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func gzTraceBody(t *testing.T, tr trace.Trace) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteGzip(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func uploadProfile(t *testing.T, ts *httptest.Server, p *profile.Profile) Meta {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/gzip", gzProfileBody(t, p))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var ur uploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	return ur.Meta
}

// offlineBin encodes what `mocktails synth -format bin` would emit for
// (p, seed, n): the reference bytes a server stream must match.
func offlineBin(t *testing.T, p *profile.Profile, seed uint64, n int) []byte {
	t.Helper()
	src := core.SynthesizeFrom(p, seed)
	tr := trace.Collect(src, n)
	if c, ok := src.(interface{ Close() }); ok {
		c.Close()
	}
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func offlineCSV(t *testing.T, p *profile.Profile, seed uint64, n int) []byte {
	t.Helper()
	src := core.SynthesizeFrom(p, seed)
	tr := trace.Collect(src, n)
	if c, ok := src.(interface{ Close() }); ok {
		c.Close()
	}
	var buf bytes.Buffer
	if _, err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The core acceptance invariant: a streamed synthesis response is
// byte-identical to the offline encoder's output for the same
// (profile, seed, n, format).
func TestSynthStreamMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 1)
	meta := uploadProfile(t, ts, p)

	cases := []struct {
		query string
		seed  uint64
		n     int
		csv   bool
	}{
		{"seed=42", 42, 0, false},
		{"seed=7", 7, 0, false},
		{"seed=7&n=100", 7, 100, false},
		{"seed=42&format=csv", 42, 0, true},
		{"seed=9&n=37&format=csv", 9, 37, true},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth?"+tc.query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d err %v", tc.query, resp.StatusCode, err)
		}
		var want []byte
		if tc.csv {
			want = offlineCSV(t, p, tc.seed, tc.n)
		} else {
			want = offlineBin(t, p, tc.seed, tc.n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: stream differs from offline output (%d vs %d bytes)", tc.query, len(got), len(want))
		}
		if !tc.csv {
			if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(want)) {
				t.Fatalf("%s: Content-Length %s, want %d", tc.query, cl, len(want))
			}
		}
		if id := resp.Header.Get("X-Mocktails-Profile"); id != meta.ID {
			t.Fatalf("%s: X-Mocktails-Profile %q", tc.query, id)
		}
	}
}

// Uploading a raw trace has the server fit it in-process with the CLI's
// default partitioning, so the resulting profile content-addresses
// identically to a pre-fit upload of the same trace — the second upload
// is a dedupe hit.
func TestUploadTraceFitsAndDedupes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(3, 300)

	resp, err := http.Post(ts.URL+"/v1/profiles?kind=trace&name=w3", "application/gzip", gzTraceBody(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	var ur uploadResponse
	err = json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("trace upload: status %d err %v", resp.StatusCode, err)
	}

	p, err := core.Build("w3", tr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantID, _, err := ProfileID(p)
	if err != nil {
		t.Fatal(err)
	}
	if ur.ID != wantID {
		t.Fatalf("server fit produced %s, offline fit %s — default params diverged", ur.ID, wantID)
	}

	resp2, err := http.Post(ts.URL+"/v1/profiles", "application/gzip", gzProfileBody(t, p))
	if err != nil {
		t.Fatal(err)
	}
	var ur2 uploadResponse
	err = json.NewDecoder(resp2.Body).Decode(&ur2)
	resp2.Body.Close()
	if err != nil || resp2.StatusCode != http.StatusOK || !ur2.Deduped || ur2.ID != wantID {
		t.Fatalf("pre-fit re-upload: status %d deduped %v id %s err %v",
			resp2.StatusCode, ur2.Deduped, ur2.ID, err)
	}
}

// A gzip upload with one flipped bit after the 10-byte gzip header
// answers 400, unless the flip leaves the decompressed bytes as they
// were, in which case it fits to the clean profile. A corrupted body
// never yields the ID of some other profile: the gzip trailer's
// checksum is verified even though the record and leaf counts say
// where the content ends.
func TestUploadCorruptGzipRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 7)
	wantID, _, err := ProfileID(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind, query string
		gz          []byte
	}{
		{"trace", "?kind=trace&name=w7", gzTraceBody(t, testTrace(7, 300)).Bytes()},
		{"profile", "", gzProfileBody(t, p).Bytes()},
	} {
		for i := 10; i < len(c.gz); i += len(c.gz) / 16 {
			bad := bytes.Clone(c.gz)
			bad[i] ^= 1 << (i % 8)
			resp, err := http.Post(ts.URL+"/v1/profiles"+c.query, "application/gzip", bytes.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			var ur uploadResponse
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusBadRequest {
				continue
			}
			if err := json.Unmarshal(body, &ur); err != nil || ur.ID != wantID {
				t.Errorf("%s with bit flipped at byte %d of %d: status %d, id %s, want 400 or the clean id %s",
					c.kind, i, len(c.gz), resp.StatusCode, ur.ID, wantID)
			}
		}
	}
}

// The upload decoder sniffs by magic: the same trace delivered raw
// binary, as CSV, and as gzip content-addresses to one profile.
func TestUploadTraceSniffsFormats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(5, 300)

	var binBuf, csvBuf bytes.Buffer
	if _, err := trace.WriteBinary(&binBuf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCSV(&csvBuf, tr); err != nil {
		t.Fatal(err)
	}

	ids := make(map[string]bool)
	for name, body := range map[string]io.Reader{
		"gz":  gzTraceBody(t, tr),
		"bin": &binBuf,
		"csv": &csvBuf,
	} {
		resp, err := http.Post(ts.URL+"/v1/profiles?kind=trace&name=w5", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		var ur uploadResponse
		err = json.NewDecoder(resp.Body).Decode(&ur)
		resp.Body.Close()
		if err != nil || (resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK) {
			t.Fatalf("%s upload: status %d err %v", name, resp.StatusCode, err)
		}
		ids[ur.ID] = true
	}
	if len(ids) != 1 {
		t.Fatalf("formats content-addressed to %d distinct profiles, want 1", len(ids))
	}
}

// A chunked upload (unknown Content-Length, body arriving through a
// pipe) fits while the body streams in and content-addresses exactly
// like an offline build of the same trace.
func TestUploadTraceChunked(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(6, 2000)
	raw := gzTraceBody(t, tr).Bytes()

	pr, pw := io.Pipe()
	go func() {
		// Dribble the body in small chunks so the fit demonstrably
		// overlaps with the upload.
		for len(raw) > 0 {
			n := 512
			if n > len(raw) {
				n = len(raw)
			}
			if _, err := pw.Write(raw[:n]); err != nil {
				return
			}
			raw = raw[n:]
		}
		pw.Close()
	}()
	req, err := http.NewRequest("POST", ts.URL+"/v1/profiles?kind=trace&name=w6", pr)
	if err != nil {
		t.Fatal(err)
	}
	// No ContentLength: the client sends Transfer-Encoding: chunked.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ur uploadResponse
	err = json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked upload: status %d err %v", resp.StatusCode, err)
	}

	p, err := core.Build("w6", tr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantID, _, err := ProfileID(p)
	if err != nil {
		t.Fatal(err)
	}
	if ur.ID != wantID {
		t.Fatalf("chunked fit produced %s, offline fit %s", ur.ID, wantID)
	}
}

// Exceeding -max-trace-bytes aborts the fit with 413 instead of
// materialising an unbounded trace.
func TestUploadTraceTooLarge(t *testing.T) {
	// Budget for 100 decoded records; send 300.
	_, ts := newTestServer(t, Config{MaxTraceBytes: 100 * trace.RequestMemBytes})
	resp, err := http.Post(ts.URL+"/v1/profiles?kind=trace", "application/gzip", gzTraceBody(t, testTrace(7, 300)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	// Under the cap, the same endpoint still fits.
	resp, err = http.Post(ts.URL+"/v1/profiles?kind=trace", "application/gzip", gzTraceBody(t, testTrace(7, 50)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("under-cap upload: status %d, want 201", resp.StatusCode)
	}
}

// Exceeding -max-upload (wire bytes) also maps to 413 on the trace
// path, surfaced through the streaming decoder.
func TestUploadBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUploadBytes: 256})
	var binBuf bytes.Buffer
	if _, err := trace.WriteBinary(&binBuf, testTrace(8, 300)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/profiles?kind=trace", "application/octet-stream", &binBuf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
}

// An empty body is a client error, not an empty profile.
func TestUploadEmptyTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/profiles?kind=trace", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("empty trace")) {
		t.Fatalf("status %d body %s, want 400 empty trace", resp.StatusCode, body)
	}
}

// A raw binary body holding two traces back to back is a client error:
// the decoder requires the body to end after the first header's
// records, so the second trace is not silently dropped.
func TestUploadConcatenatedBinTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body bytes.Buffer
	for _, seed := range []uint64{8, 9} {
		if _, err := trace.WriteBinary(&body, testTrace(seed, 300)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/profiles?kind=trace", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("trailing data")) {
		t.Fatalf("status %d body %s, want 400 trailing data", resp.StatusCode, msg)
	}
}

// A zero-size request whose empty range touches the end of a merged
// region fits like any other: dynamic partitioning counts it as one
// byte rather than crashing the handler.
func TestUploadZeroSizeRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := trace.Trace{
		{Time: 1, Addr: 0, Size: 64, Op: trace.Read},
		{Time: 2, Addr: 0, Size: 64, Op: trace.Read},
		{Time: 3, Addr: 64, Size: 0, Op: trace.Read},
	}
	resp, err := http.Post(ts.URL+"/v1/profiles?kind=trace", "application/gzip", gzTraceBody(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d body %s, want 201", resp.StatusCode, body)
	}
}

func TestGetProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 1)
	meta := uploadProfile(t, ts, p)

	resp, err := http.Get(ts.URL + "/v1/profiles/" + meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Meta
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || got != meta {
		t.Fatalf("get meta: status %d got %+v want %+v", resp.StatusCode, got, meta)
	}

	// ?download= round-trips the stored profile bit-exactly: any value
	// but gz sends the stored flat encoding.
	resp, err = http.Get(ts.URL + "/v1/profiles/" + meta.ID + "?download=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	f, err := profile.OpenFlat(body)
	if err != nil {
		t.Fatal(err)
	}
	rtID, _, err := ProfileID(f)
	if err != nil {
		t.Fatal(err)
	}
	if rtID != meta.ID {
		t.Fatalf("downloaded profile re-addresses to %s, want %s", rtID, meta.ID)
	}

	resp, err = http.Get(ts.URL + "/v1/profiles/" + meta.ID + "/../escape")
	if err == nil {
		resp.Body.Close()
	}
}

func TestListAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	uploadProfile(t, ts, testProfile(t, 1))
	uploadProfile(t, ts, testProfile(t, 2))

	resp, err := http.Get(ts.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var lr struct {
		Profiles []Meta `json:"profiles"`
	}
	err = json.NewDecoder(resp.Body).Decode(&lr)
	resp.Body.Close()
	if err != nil || len(lr.Profiles) != 2 {
		t.Fatalf("list: %d profiles err %v", len(lr.Profiles), err)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status        string `json:"status"`
		Profiles      int    `json:"profiles"`
		ActiveStreams int64  `json:"active_streams"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "ok" || h.Profiles != 2 || h.ActiveStreams != 0 {
		t.Fatalf("healthz: %+v err %v", h, err)
	}
	if s.ActiveStreams() != 0 {
		t.Fatal("active streams leaked")
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	meta := uploadProfile(t, ts, testProfile(t, 1))

	check := func(method, path string, body io.Reader, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}

	check("GET", "/v1/profiles/deadbeef", nil, http.StatusNotFound)
	check("POST", "/v1/profiles/deadbeef/synth", nil, http.StatusNotFound)
	check("POST", "/v1/profiles?kind=nonsense", strings.NewReader("x"), http.StatusBadRequest)
	check("POST", "/v1/profiles?bogus=1", strings.NewReader("x"), http.StatusBadRequest)
	check("POST", "/v1/profiles", strings.NewReader("not gzip"), http.StatusBadRequest)
	check("POST", "/v1/profiles?kind=trace", strings.NewReader("not gzip"), http.StatusBadRequest)
	check("POST", "/v1/profiles/"+meta.ID+"/synth?seed=abc", nil, http.StatusBadRequest)
	check("POST", "/v1/profiles/"+meta.ID+"/synth?format=xml", nil, http.StatusBadRequest)
	check("DELETE", "/v1/profiles/"+meta.ID, nil, http.StatusMethodNotAllowed)
}

// A profile larger than the whole store yields 507, not an eviction
// loop.
func TestUploadStoreFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, StoreBudget: 64})
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/gzip", gzProfileBody(t, testProfile(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("status %d, want 507", resp.StatusCode)
	}
}

// Exhausting an endpoint limiter turns requests into deterministic
// 429s carrying Retry-After, and releasing a slot restores service.
func TestThrottle(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxStreams: 2})
	meta := uploadProfile(t, ts, testProfile(t, 1))

	for i := 0; i < 2; i++ {
		if !s.streams.tryAcquire() {
			t.Fatal("limiter refused below capacity")
		}
	}
	resp, err := http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	s.streams.release()
	resp, err = http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
	s.streams.release()
}

// refsOf reads the current pin count of a stored profile through the
// store's test hook, keeping this test independent of how IDs map to
// shards.
func refsOf(s *Server, id string) int {
	return s.store.refs(id)
}

// await polls cond until it holds or a 5 s deadline passes. A streamed
// response can be fully read before the handler's deferred work (trace
// recording, pin release) has run; tests wait for that state here and
// leave their assertions to report a timeout.
func await(cond func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// A client that disconnects mid-stream stops the generator: the
// profile's pin is released and the active-stream gauge returns to
// zero shortly after the close.
func TestSynthClientDisconnect(t *testing.T) {
	// One shard, so the default budget admits the ~30 MB flat profile.
	s, ts := newTestServer(t, Config{Shards: 1})
	// A bigger trace so the stream (~6 MB encoded) far exceeds socket
	// buffering: the server must block mid-write until the client reads.
	p, err := core.Build("big", testTrace(1, 300_000), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	meta := uploadProfile(t, ts, p)

	resp, err := http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read one chunk's worth, then hang up.
	if _, err := io.ReadFull(resp.Body, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if got := refsOf(s, meta.ID); got != 1 {
		t.Fatalf("mid-stream refs = %d, want 1", got)
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for refsOf(s, meta.ID) != 0 || s.ActiveStreams() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream did not wind down: refs=%d active=%d",
				refsOf(s, meta.ID), s.ActiveStreams())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The acceptance bar: at least 64 concurrent synthesis streams, all
// byte-identical to the offline encoder, with no pins or active-stream
// counts leaking afterwards. Run under -race in CI.
func TestConcurrentStreams(t *testing.T) {
	const streams = 64
	s, ts := newTestServer(t, Config{MaxStreams: streams})
	p := testProfile(t, 1)
	meta := uploadProfile(t, ts, p)
	want := offlineBin(t, p, 42, 0)

	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth?seed=42", "", nil)
			if err != nil {
				errs <- err
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("stream differs from offline output")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	await(func() bool { return refsOf(s, meta.ID) == 0 && s.ActiveStreams() == 0 })
	if got := refsOf(s, meta.ID); got != 0 {
		t.Fatalf("%d pins leaked", got)
	}
	if s.ActiveStreams() != 0 {
		t.Fatal("active-stream gauge leaked")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"123", 123, false},
		{"1K", 1 << 10, false},
		{"64MiB", 64 << 20, false},
		{"2GB", 2 << 30, false},
		{" 4 KiB ", 4 << 10, false},
		{"1gib", 1 << 30, false},
		{"-1", 0, true},
		{"lots", 0, true},
		{"", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// TestDownloadAdvertisesEncoding pins the download contract: download=gz
// encodes the stored view as gzip, byte-equal to the offline gz
// encoding, and any other value sends the stored flat bytes —
// the exact buffer MarshalFlat produces, whether the profile is a fresh
// upload or promoted from the disk tier — and the Content-Type and
// Content-Disposition always describe the encoding actually sent.
func TestDownloadAdvertisesEncoding(t *testing.T) {
	s, ts := newTestServer(t, Config{DiskDir: t.TempDir()})
	p := testProfile(t, 11)
	meta := uploadProfile(t, ts, p)
	var wantGz bytes.Buffer
	if err := profile.WriteGzip(&wantGz, p); err != nil {
		t.Fatal(err)
	}

	get := func(q string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/profiles/" + meta.ID + "?download=" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("download=%s: status %d err %v", q, resp.StatusCode, err)
		}
		return resp, body
	}
	checkGz := func(resp *http.Response, body []byte) {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != contentTypeGz {
			t.Fatalf("Content-Type %q, want %q", ct, contentTypeGz)
		}
		if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, meta.ID+".profile.gz") {
			t.Fatalf("Content-Disposition %q lacks gz filename", cd)
		}
		rt, err := profile.ReadGzip(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id, _, _ := ProfileID(rt); id != meta.ID {
			t.Fatalf("gz body re-addresses to %s", id)
		}
		if !bytes.Equal(body, wantGz.Bytes()) {
			t.Fatalf("gz body (%d bytes) differs from the offline gz encoding (%d bytes)", len(body), wantGz.Len())
		}
	}
	checkFlat := func(resp *http.Response, body []byte) {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != contentTypeFlat {
			t.Fatalf("Content-Type %q, want %q", ct, contentTypeFlat)
		}
		if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, meta.ID+flatExt) {
			t.Fatalf("Content-Disposition %q lacks flat filename", cd)
		}
		// The body is the content-addressed bytes themselves.
		if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != meta.ID {
			t.Fatalf("flat body hashes to %x, not its ID %s", sum, meta.ID)
		}
		f, err := profile.OpenFlat(body)
		if err != nil {
			t.Fatalf("flat body does not open: %v", err)
		}
		if id, _, _ := ProfileID(f); id != meta.ID {
			t.Fatalf("flat body re-addresses to %s", id)
		}
	}

	want, err := profile.MarshalFlat(p)
	if err != nil {
		t.Fatal(err)
	}
	checkStored := func(q string) {
		t.Helper()
		resp, body := get(q)
		checkFlat(resp, body)
		if !bytes.Equal(body, want) {
			t.Fatalf("download=%s: %d bytes differ from MarshalFlat's %d", q, len(body), len(want))
		}
	}

	// Warm (the buffer Put encoded): the stored flat bytes, or gz.
	checkStored("1")
	checkStored("flat")
	checkGz(get("gz"))

	// Demote, so the next acquire promotes the disk-tier mapping: the
	// same bytes, and gz still re-encodes.
	await(func() bool { return refsOf(s, meta.ID) == 0 })
	if !s.Store().Demote(meta.ID) {
		t.Fatal("Demote failed")
	}
	checkStored("1")
	checkGz(get("gz"))
}

// poisoned returns a copy of p whose flat encoding keeps p's transition
// counts but swaps two multiplicities of one Markov model's value
// multiset without re-deriving it: synthesis from it differs from p,
// while p's canonical varint encoding does not see the change.
func poisoned(t *testing.T, p *profile.Profile) *profile.Profile {
	t.Helper()
	q := *p
	q.Leaves = slices.Clone(p.Leaves)
	for i := range q.Leaves {
		m := &q.Leaves[i].Op
		if !m.Constant && len(m.ValN) >= 2 && m.ValN[0] != m.ValN[1] {
			m.ValN = slices.Clone(m.ValN)
			m.ValN[0], m.ValN[1] = m.ValN[1], m.ValN[0]
			return &q
		}
	}
	t.Fatal("no leaf with a two-valued op model to poison")
	return nil
}

// A flat upload whose derived tables disagree with its transition
// counts cannot take the honest profile's address: the address hashes
// the bytes synthesis reads, so the honest gz upload that follows is
// stored as itself and streams exactly what offline synthesis does.
func TestFlatUploadCannotPoisonAddress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 7)
	post := func(body []byte) uploadResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ur uploadResponse
		if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil || resp.StatusCode/100 != 2 {
			t.Fatalf("upload: status %d err %v", resp.StatusCode, err)
		}
		return ur
	}
	bad, err := profile.MarshalFlat(poisoned(t, p))
	if err != nil {
		t.Fatal(err)
	}
	badMeta := post(bad)
	meta := post(gzProfileBody(t, p).Bytes())
	if meta.Deduped || meta.ID == badMeta.ID {
		t.Fatalf("honest upload deduped onto the poisoned one (%s)", badMeta.ID)
	}
	resp, err := http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth?seed=7&format=bin", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("synth: status %d err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(got, offlineBin(t, p, 7, 0)) {
		t.Fatal("stream on the honest ID differs from offline synthesis")
	}
}

// TestSynthColdHitByteIdentical streams the same synthesis twice over
// HTTP — once warm (the buffer Put encoded), once cold (promoted from
// the disk tier) — and requires identical bytes, the tier's core
// invariant.
func TestSynthColdHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{DiskDir: t.TempDir()})
	p := testProfile(t, 12)
	meta := uploadProfile(t, ts, p)

	stream := func() []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth?seed=5", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("synth: status %d err %v", resp.StatusCode, err)
		}
		return body
	}
	warm := stream()
	await(func() bool { return refsOf(s, meta.ID) == 0 })
	if !s.Store().Demote(meta.ID) {
		t.Fatal("Demote failed")
	}
	cold := stream()
	if !bytes.Equal(warm, cold) {
		t.Fatalf("cold stream differs from warm (%d vs %d bytes)", len(cold), len(warm))
	}
	if want := offlineBin(t, p, 5, 0); !bytes.Equal(cold, want) {
		t.Fatal("cold stream differs from offline synthesis")
	}
}

// A gz profile whose rows are out of the canonical order has no dense
// transition table: the decoder rejects it and the upload answers 400
// without storing anything.
func TestUploadNonCanonicalProfileRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// One leaf: a delta-time chain listing its rows 2 then 1, and three
	// constant models, in the varint layout profile.Write emits.
	raw := binary.LittleEndian.AppendUint32(nil, 0x4d50524f) // "MPRO"
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	raw = append(raw, 1, 'x', 0, 1)
	for _, v := range []uint64{0, 0x1000, 0x1000, 0x2000, 3} {
		raw = binary.AppendUvarint(raw, v)
	}
	raw = append(raw, 1)
	raw = binary.AppendVarint(raw, 1) // initial
	raw = binary.AppendUvarint(raw, 2)
	for _, row := range [][2]int64{{2, 1}, {1, 2}} { // {from, to}, count 1
		raw = binary.AppendVarint(raw, row[0])
		raw = binary.AppendUvarint(raw, 1)
		raw = binary.AppendVarint(raw, row[1])
		raw = binary.AppendUvarint(raw, 1)
	}
	for range 3 {
		raw = append(raw, 0)
		raw = binary.AppendVarint(raw, 0)
	}
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	zw.Write(raw)
	zw.Close()
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("source 1 not above 2")) {
		t.Fatalf("status %d (%s), want 400 for the row order", resp.StatusCode, msg)
	}
	if n := s.store.Len(); n != 0 {
		t.Fatalf("store holds %d profiles after a rejected upload", n)
	}
}
