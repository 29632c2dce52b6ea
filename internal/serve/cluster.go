package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Cluster metrics. Pushes/receives count replication traffic, fetches
// count fetch-on-miss promotions of remote profiles into the local
// store, forwards count proxied metadata reads, and peer_errors counts
// failed peer round-trips of any kind.
var (
	mClusterFetches      = obs.NewCounter("serve.cluster.fetches")
	mClusterFetchMisses  = obs.NewCounter("serve.cluster.fetch_misses")
	mClusterForwards     = obs.NewCounter("serve.cluster.forwards")
	mClusterReplPushes   = obs.NewCounter("serve.cluster.replicate_pushes")
	mClusterReplReceived = obs.NewCounter("serve.cluster.replicate_received")
	mClusterReplErrors   = obs.NewCounter("serve.cluster.replicate_errors")
	mClusterPeerErrors   = obs.NewCounter("serve.cluster.peer_errors")
	mClusterMembersGauge = obs.NewGauge("serve.cluster.members")
	mClusterProbeNs      = obs.NewHistogram("serve.cluster.probe.ns", obs.ScaleNs)
)

// headerPeer marks intra-cluster requests with the sender's advertise
// address. A node never triggers cluster actions — fetch-on-miss,
// forwarding, replication — while serving a request that carries it,
// which makes routing loops structurally impossible: a peer request is
// answered from local state or not at all.
const headerPeer = "X-Mocktails-Peer"

// ClusterConfig joins a Server to a cluster of mocktailsd peers over a
// consistent-hash ring keyed by profile content address.
type ClusterConfig struct {
	// Advertise is this node's base URL as peers reach it, e.g.
	// "http://host1:8677". It must appear reachable to every peer and
	// is this node's ring identity.
	Advertise string
	// Peers are the other members' base URLs. Advertise may be listed
	// too (convenient for sharing one flag value across nodes);
	// duplicates collapse.
	Peers []string
	// Replicas is the virtual-node count per member (0 = the ring
	// default).
	Replicas int
	// PeerTimeout bounds one peer round-trip — a replication push, a
	// fetch-on-miss download, a forwarded read (0 = 30s).
	PeerTimeout time.Duration
}

// cluster is the runtime state behind a joined ClusterConfig: the ring,
// the shared peer HTTP client, and the self identity. Immutable after
// construction.
type cluster struct {
	self    string
	ring    *Ring
	client  *http.Client
	timeout time.Duration
}

func newCluster(cfg ClusterConfig) (*cluster, error) {
	if cfg.Advertise == "" {
		return nil, errors.New("serve: cluster: Advertise must be set")
	}
	if cfg.PeerTimeout == 0 {
		cfg.PeerTimeout = 30 * time.Second
	}
	members := append([]string{cfg.Advertise}, cfg.Peers...)
	ring := NewRing(members, cfg.Replicas)
	mClusterMembersGauge.Set(float64(ring.Len()))
	return &cluster{
		self: cfg.Advertise,
		ring: ring,
		// Timeouts are enforced per-operation through request contexts,
		// not a client-wide Timeout, so one slow fetch cannot be cut by
		// a limit sized for fast metadata reads.
		client:  &http.Client{},
		timeout: cfg.PeerTimeout,
	}, nil
}

// peerSequence returns the fallback order for id with self removed:
// the ring owner first, then the members whose vnodes follow on the
// circle. Every node computes the same order, so when the owner is
// down the whole cluster converges on the same second choice.
func (c *cluster) peerSequence(id string) []string {
	seq := c.ring.Sequence(id)
	peers := seq[:0:0]
	for _, m := range seq {
		if m != c.self {
			peers = append(peers, m)
		}
	}
	return peers
}

// do runs one peer request with the peer marker and the per-operation
// timeout applied.
func (c *cluster) do(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set(headerPeer, c.self)
	// Propagate the caller's trace so a fetch-on-miss or replication hop
	// shows up under the same trace ID on the remote node.
	if sc := obs.SpanFromContext(ctx).ChildContext(); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := c.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel travels with the body: the caller's Close releases it.
	resp.Body = &cancelReadCloser{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelReadCloser struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelReadCloser) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// replicate pushes a freshly-admitted profile's flat encoding (the
// buffer the store holds) to its ring owner so the canonical location
// always holds a copy, wherever the upload landed. A push to self is
// a no-op; a failed push is logged and counted but does not fail the
// upload — the uploader keeps its local copy and fetch-on-miss covers
// readers until the owner recovers.
func (c *cluster) replicate(ctx context.Context, id string, flat []byte) {
	owner := c.ring.Owner(id)
	if owner == c.self {
		return
	}
	resp, err := c.do(ctx, http.MethodPost, owner+"/v1/cluster/replicate", bytes.NewReader(encodeFrame(id, flat)))
	if err != nil {
		mClusterReplErrors.Inc()
		mClusterPeerErrors.Inc()
		obs.FromContext(ctx).Warn("cluster: replication push failed", "id", id, "owner", owner, "err", err)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode >= 300 {
		mClusterReplErrors.Inc()
		obs.FromContext(ctx).Warn("cluster: replication push rejected", "id", id, "owner", owner, "status", resp.StatusCode)
		return
	}
	mClusterReplPushes.Inc()
	obs.FromContext(ctx).Debug("cluster: replicated profile to owner", "id", id, "owner", owner)
}

// errNotInCluster reports that no reachable peer served a profile.
var errNotInCluster = errors.New("serve: profile not found in the cluster")

// fetch pulls profile id from the cluster — the ring owner first, then
// the rest of the preference sequence — over the flat .mfp wire format
// (GET ?download=flat), handing each body to admit, which verifies it
// against id and stores it. A body admit rejects counts as a peer
// error and the next peer is tried, except that ErrStoreFull is
// returned at once. It returns errNotInCluster (with fetch_misses
// counted) when no reachable peer supplied an admissible body.
func (c *cluster) fetch(ctx context.Context, id string, maxBytes int64, admit func(flat []byte) error) error {
	log := obs.FromContext(ctx)
	for _, peer := range c.peerSequence(id) {
		resp, err := c.do(ctx, http.MethodGet, peer+"/v1/profiles/"+id+"?download=flat", nil)
		if err != nil {
			mClusterPeerErrors.Inc()
			log.Debug("cluster: fetch peer unreachable", "id", id, "peer", peer, "err", err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				mClusterPeerErrors.Inc()
				log.Debug("cluster: fetch refused", "id", id, "peer", peer, "status", resp.StatusCode)
			}
			continue
		}
		buf, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes+1))
		resp.Body.Close()
		if err != nil || int64(len(buf)) > maxBytes {
			mClusterPeerErrors.Inc()
			log.Warn("cluster: fetch body failed", "id", id, "peer", peer, "bytes", len(buf), "err", err)
			continue
		}
		if err := admit(buf); err != nil {
			if errors.Is(err, ErrStoreFull) {
				return err
			}
			mClusterPeerErrors.Inc()
			log.Warn("cluster: fetched profile rejected", "id", id, "peer", peer, "err", err)
			continue
		}
		mClusterFetches.Inc()
		log.Debug("cluster: fetched profile from peer", "id", id, "peer", peer, "bytes", len(buf))
		return nil
	}
	mClusterFetchMisses.Inc()
	return errNotInCluster
}

// forwardMeta proxies a metadata read to the cluster, returning the
// first definitive answer (200 or 404 body plus status) in preference
// order. ok is false when every peer was unreachable.
func (c *cluster) forwardMeta(ctx context.Context, id string) (body []byte, status int, ok bool) {
	log := obs.FromContext(ctx)
	for _, peer := range c.peerSequence(id) {
		resp, err := c.do(ctx, http.MethodGet, peer+"/v1/profiles/"+id, nil)
		if err != nil {
			mClusterPeerErrors.Inc()
			log.Debug("cluster: forward peer unreachable", "id", id, "peer", peer, "err", err)
			continue
		}
		b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound) {
			mClusterPeerErrors.Inc()
			log.Debug("cluster: forward failed", "id", id, "peer", peer, "status", resp.StatusCode, "err", err)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			// The peer definitively does not hold it; keep looking — a
			// non-owner may still hold the only copy after a membership
			// change.
			continue
		}
		mClusterForwards.Inc()
		return b, resp.StatusCode, true
	}
	return nil, 0, false
}

// peerHealth is one peer's row in the cluster health document. RTTNs
// is the full probe round-trip in nanoseconds; it is reported for
// failed probes too (how long the failure took to surface).
type peerHealth struct {
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	RTTNs int64  `json:"rtt_ns"`
	Error string `json:"error,omitempty"`
}

// probePeers checks every other member's /healthz concurrently with a
// short per-probe timeout, returning rows in ring-member order. Each
// successful probe's round-trip lands in the serve.cluster.probe.ns
// histogram, so scraping /metrics yields a cluster RTT distribution
// without a separate ping loop.
func (c *cluster) probePeers(ctx context.Context) []peerHealth {
	var peers []string
	for _, m := range c.ring.Members() {
		if m != c.self {
			peers = append(peers, m)
		}
	}
	rows := make([]peerHealth, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/healthz", nil)
			if err != nil {
				rows[i] = peerHealth{Addr: peer, Error: err.Error()}
				return
			}
			req.Header.Set(headerPeer, c.self)
			if sc := obs.SpanFromContext(ctx).ChildContext(); sc.Valid() {
				req.Header.Set("traceparent", sc.Traceparent())
			}
			start := time.Now()
			resp, err := c.client.Do(req)
			if err != nil {
				mClusterPeerErrors.Inc()
				rows[i] = peerHealth{Addr: peer, RTTNs: int64(time.Since(start)), Error: err.Error()}
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			rtt := time.Since(start)
			if resp.StatusCode != http.StatusOK {
				rows[i] = peerHealth{Addr: peer, RTTNs: int64(rtt), Error: fmt.Sprintf("status %d", resp.StatusCode)}
				return
			}
			mClusterProbeNs.Observe(int64(rtt))
			rows[i] = peerHealth{Addr: peer, OK: true, RTTNs: int64(rtt)}
		}(i, peer)
	}
	wg.Wait()
	return rows
}
