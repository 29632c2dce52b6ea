package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/profile"
)

// flatBytes returns the flat wire encoding of p — what peers exchange.
func flatBytes(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	buf, err := profile.MarshalFlat(p)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// newTestCluster boots n servers on live listeners and joins them into
// one consistent-hash ring. Tests only learn each node's address after
// its listener starts, so the join runs after boot — exactly the
// JoinCluster path the production daemon avoids needing.
func newTestCluster(t *testing.T, n int, cfg Config) ([]*Server, []*httptest.Server) {
	t.Helper()
	srvs := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = s
		tss[i] = httptest.NewServer(s.Handler())
		t.Cleanup(tss[i].Close)
		urls[i] = tss[i].URL
	}
	for i, s := range srvs {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		if err := s.JoinCluster(ClusterConfig{
			Advertise:   urls[i],
			Peers:       peers,
			PeerTimeout: 5 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return srvs, tss
}

// streamSynth POSTs a synthesis and returns (status, body).
func streamSynth(t *testing.T, baseURL, id string, seed uint64) (int, []byte) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/profiles/%s/synth?seed=%d&format=bin", baseURL, id, seed), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// The acceptance path: a profile uploaded to node A is replicated to
// its ring owner, any other node answers metadata reads by forwarding,
// and a synthesis streamed from node C — which never saw the upload —
// is byte-identical to the offline CLI path (fetch-on-miss over the
// flat wire format, then a local stream).
func TestClusterCrossNodeSynth(t *testing.T) {
	srvs, tss := newTestCluster(t, 3, Config{})
	p := testProfile(t, 1)
	meta := uploadProfile(t, tss[0], p)

	// Synchronous replication: by upload-response time the ring owner
	// holds a copy, wherever the upload landed.
	owner := srvs[0].cluster.Load().ring.Owner(meta.ID)
	for i, ts := range tss {
		if ts.URL != owner {
			continue
		}
		if _, ok := srvs[i].store.Meta(meta.ID); !ok {
			t.Fatalf("ring owner %s does not hold %s after upload", owner, meta.ID)
		}
	}

	// Metadata from a node that holds nothing locally: forwarded, not
	// fetched — the profile must not appear in node 2's store.
	resp, err := http.Get(tss[2].URL + "/v1/profiles/" + meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Meta
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.ID != meta.ID {
		t.Fatalf("forwarded meta: status %d, id %q", resp.StatusCode, got.ID)
	}
	if owner != tss[2].URL {
		if _, ok := srvs[2].store.Meta(meta.ID); ok {
			t.Fatal("metadata read pulled the profile into the local store")
		}
	}

	// The stream from node C, byte-identical to offline synthesis.
	want := offlineBin(t, p, 7, 0)
	status, body := streamSynth(t, tss[2].URL, meta.ID, 7)
	if status != http.StatusOK {
		t.Fatalf("cross-node synth: status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("cross-node stream differs from offline synth: %d vs %d bytes", len(body), len(want))
	}
	// Fetch-on-miss admitted the profile locally: the next stream from
	// the same node is a local hit and still identical.
	if _, ok := srvs[2].store.Meta(meta.ID); !ok && owner != tss[2].URL {
		t.Fatal("fetch-on-miss did not admit the profile locally")
	}
	if _, body2 := streamSynth(t, tss[2].URL, meta.ID, 7); !bytes.Equal(body2, want) {
		t.Fatal("second (local) stream differs from the first")
	}
}

// Killing one node mid-test must not 5xx requests for keys whose data
// is still reachable: the ring's preference sequence routes around the
// dead member.
func TestClusterNodeKillReroutes(t *testing.T) {
	srvs, tss := newTestCluster(t, 3, Config{})
	_ = srvs

	// Upload several distinct profiles to node A so the ring spreads
	// ownership; node A keeps a local copy of each, so every key stays
	// reachable whichever node dies.
	type workload struct {
		meta Meta
		want []byte
	}
	var ws []workload
	for seed := uint64(1); seed <= 6; seed++ {
		p := testProfile(t, seed)
		ws = append(ws, workload{uploadProfile(t, tss[0], p), offlineBin(t, p, 9, 0)})
	}

	tss[1].Close() // kill node B: connections now refuse

	for _, w := range ws {
		status, body := streamSynth(t, tss[2].URL, w.meta.ID, 9)
		if status >= 500 {
			t.Fatalf("5xx after node kill: status %d for %s", status, w.meta.ID)
		}
		if status != http.StatusOK {
			t.Fatalf("status %d for %s after node kill: %s", status, w.meta.ID, body)
		}
		if !bytes.Equal(body, w.want) {
			t.Fatalf("stream for %s differs from offline synth after node kill", w.meta.ID)
		}
	}

	// The survivors' cluster health reflects the dead peer.
	resp, err := http.Get(tss[0].URL + "/v1/cluster/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Mode    string       `json:"mode"`
		PeersOK bool         `json:"peers_ok"`
		Peers   []peerHealth `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Mode != "cluster" || health.PeersOK {
		t.Fatalf("health after node kill: mode=%q peers_ok=%v, want cluster/false", health.Mode, health.PeersOK)
	}
}

// Peer-marked requests are answered from local state only: a miss is a
// fast 404, never a fetch or forward — the property that makes routing
// loops impossible.
func TestClusterPeerRequestsNeverRecurse(t *testing.T) {
	_, tss := newTestCluster(t, 2, Config{})
	id := "deadbeef"

	req, _ := http.NewRequest(http.MethodGet, tss[0].URL+"/v1/profiles/"+id, nil)
	req.Header.Set(headerPeer, "http://elsewhere")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peer-marked miss: status %d, want 404", resp.StatusCode)
	}

	// An unmarked miss consults the cluster and still terminates with a
	// definitive 404 when every peer answers "not found".
	resp2, err := http.Post(tss[0].URL+"/v1/profiles/"+id+"/synth", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("cluster-wide miss: status %d, want 404", resp2.StatusCode)
	}
}

// The replicate endpoint verifies the claimed content address against
// the decoded payload: a peer cannot plant bytes under a foreign ID.
func TestClusterReplicateRejectsMismatchedID(t *testing.T) {
	_, tss := newTestCluster(t, 2, Config{})
	p := testProfile(t, 3)
	flat := flatBytes(t, p)

	frame := encodeFrame("0000000000000000000000000000000000000000000000000000000000000000", flat)
	resp, err := http.Post(tss[0].URL+"/v1/cluster/replicate", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched id: status %d, want 400", resp.StatusCode)
	}

	// The honest frame is admitted.
	id, _, err := ProfileID(p)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(tss[0].URL+"/v1/cluster/replicate", "application/octet-stream", bytes.NewReader(encodeFrame(id, flat)))
	if err != nil {
		t.Fatal(err)
	}
	var ur uploadResponse
	if err := json.NewDecoder(resp2.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated || ur.ID != id {
		t.Fatalf("honest replicate: status %d id %q, want 201 %q", resp2.StatusCode, ur.ID, id)
	}
}

// A replicate frame carrying an honest ID over a payload that does not
// hash to it is refused, even when the payload's transition counts
// (and so its canonical encoding) match the honest profile's.
func TestClusterReplicateRejectsPoisonedPayload(t *testing.T) {
	_, tss := newTestCluster(t, 2, Config{})
	p := testProfile(t, 3)
	id, _, err := ProfileID(p)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(id, flatBytes(t, poisoned(t, p)))
	resp, err := http.Post(tss[0].URL+"/v1/cluster/replicate", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("poisoned payload: status %d, want 400", resp.StatusCode)
	}
}

// A flat-encoded upload to the public endpoint content-addresses
// identically to the gzip canonical upload of the same profile — the
// encoding is sniffed, and a gz upload is admitted as its flat
// encoding, which is a deterministic function of the profile.
func TestUploadFlatProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 5)
	gzMeta := uploadProfile(t, ts, p)

	resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream", bytes.NewReader(flatBytes(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ur uploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !ur.Deduped || ur.ID != gzMeta.ID {
		t.Fatalf("flat upload: status %d deduped %v id %q, want dedupe onto %q",
			resp.StatusCode, ur.Deduped, ur.ID, gzMeta.ID)
	}
}

// A single (non-clustered) node answers the cluster health endpoint in
// "single" mode and refuses replication pushes.
func TestClusterEndpointsSingleNode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/cluster/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Mode string `json:"mode"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Mode != "single" {
		t.Fatalf("single-node cluster health: status %d mode %q", resp.StatusCode, health.Mode)
	}

	resp2, err := http.Post(ts.URL+"/v1/cluster/replicate", "application/octet-stream", bytes.NewReader(encodeFrame("x", nil)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replicate to single node: status %d, want 503", resp2.StatusCode)
	}
}
