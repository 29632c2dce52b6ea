package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Request-path metrics. Per-endpoint request/error counters are created
// in NewServer ("serve.<endpoint>.requests/.errors"); per-endpoint
// latency histograms come from the request spans
// ("stage.serve.<endpoint>.ns").
var (
	mThrottled     = obs.NewCounter("serve.throttled")
	mActiveStreams = obs.NewGauge("serve.active_streams")
	mSynthStreamed = obs.NewCounter("serve.synth.requests_streamed")
	mSynthBytes    = obs.NewHistogram("serve.synth.stream_bytes", obs.ScaleBytes)
	mSynthCanceled = obs.NewCounter("serve.synth.canceled")
	mFitsServed    = obs.NewCounter("serve.fit.traces_fitted")
)

// Config tunes a Server. The zero value selects the documented
// defaults; a negative limit means unlimited.
type Config struct {
	// Shards is the profile-store shard count (0 = DefaultShards).
	Shards int
	// StoreBudget bounds the store's resident flat-encoded profile
	// bytes (0 = DefaultStoreBudget, < 0 = unlimited).
	StoreBudget int64
	// MaxStreams caps concurrent synthesis streams (0 = 128).
	MaxStreams int
	// MaxFits caps concurrent in-process fits — each fit saturates the
	// worker pool, so a small cap protects latency (0 = 4).
	MaxFits int
	// MaxInflight caps total in-flight requests (0 = 512).
	MaxInflight int
	// MaxUploadBytes caps an upload's body size (0 = 1 GiB).
	MaxUploadBytes int64
	// MaxTraceBytes caps the in-memory footprint of one fitted trace,
	// in trace.RequestMemBytes units per decoded record — the memory a
	// materialised build would need (0 = unlimited). Unlike
	// MaxUploadBytes it is enforced on decoded records, so it bounds
	// compressed (gz) and chunked uploads whose wire size says nothing
	// about their decoded size. Exceeding it returns 413.
	MaxTraceBytes int64
	// FitTimeout bounds one in-process fit (0 = 2 minutes, < 0 = none).
	FitTimeout time.Duration
	// FitWorkers is the worker count handed to profile fitting
	// (0 = the MOCKTAILS_PARALLELISM / GOMAXPROCS default).
	FitWorkers int
	// DiskDir, when non-empty, enables the store's disk tier: uploads
	// are written through as flat files, RAM eviction demotes instead
	// of discarding, and cold requests are served by memory-mapping the
	// flat file — so the servable profile set is bounded by DiskBudget
	// rather than StoreBudget.
	DiskDir string
	// DiskBudget bounds the disk tier's bytes (0 = unlimited).
	DiskBudget int64
	// Debug mounts the obs debug surface (net/http/pprof + expvar)
	// under /debug/ on the server's own mux, reusing the one handler
	// instead of opening a second listener.
	Debug bool
	// Cluster, when its Advertise field is set, joins the server to a
	// consistent-hash cluster of peers at construction. Leave zero for
	// a single node; tests that only learn their listen address after
	// starting can join later with JoinCluster.
	Cluster ClusterConfig
	// AccessLog, when non-nil, receives the per-request access-log
	// lines instead of the process logger (tests inject per-node
	// buffers). The obs -access-log flag gates emission either way.
	AccessLog *slog.Logger
	// TraceRing caps the ring buffer of recently completed request
	// traces served by GET /debug/requests (0 = 256).
	TraceRing int
}

// DefaultStoreBudget is the default profile-store byte budget: 256 MiB
// of resident flat profile bytes.
const DefaultStoreBudget = 256 << 20

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.StoreBudget == 0 {
		c.StoreBudget = DefaultStoreBudget
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 128
	}
	if c.MaxFits == 0 {
		c.MaxFits = 4
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 512
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.FitTimeout == 0 {
		c.FitTimeout = 2 * time.Minute
	}
	return c
}

// Server is the mocktailsd HTTP API: a profile store fed by uploads
// (pre-fit profiles, or traces fitted in-process) and a streaming
// synthesis endpoint. Build one with NewServer and mount Handler.
type Server struct {
	cfg   Config
	store *Store
	mux   *http.ServeMux

	global  *limiter
	fits    *limiter
	streams *limiter

	// traces keeps the most recent completed request traces for
	// GET /debug/requests. One ring per node, so cross-node trace
	// continuity is observable per node.
	traces *obs.TraceRing

	// cluster is nil for a single node. It is installed atomically so
	// JoinCluster may run after the listener is already serving.
	cluster atomic.Pointer[cluster]

	active atomic.Int64
}

// NewServer returns a Server with the given configuration. The error
// is always nil unless a disk tier is configured and its directory
// cannot be created or indexed.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := NewTieredStore(StoreConfig{
		Shards:     cfg.Shards,
		Budget:     cfg.StoreBudget,
		DiskDir:    cfg.DiskDir,
		DiskBudget: cfg.DiskBudget,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		mux:     http.NewServeMux(),
		global:  newLimiter(cfg.MaxInflight),
		fits:    newLimiter(cfg.MaxFits),
		streams: newLimiter(cfg.MaxStreams),
		traces:  obs.NewTraceRing(cfg.TraceRing),
	}
	s.mux.HandleFunc("GET /healthz", s.endpoint("health", nil, s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.endpoint("metrics", nil, s.handleMetrics))
	s.mux.HandleFunc("GET /debug/requests", s.endpoint("debug_requests", nil, s.handleDebugRequests))
	s.mux.HandleFunc("GET /v1/profiles", s.endpoint("list", nil, s.handleList))
	s.mux.HandleFunc("POST /v1/profiles", s.endpoint("upload", s.fits, s.handleUpload))
	s.mux.HandleFunc("GET /v1/profiles/{id}", s.endpoint("get", nil, s.handleGet))
	s.mux.HandleFunc("POST /v1/profiles/{id}/synth", s.endpoint("synth", s.streams, s.handleSynth))
	s.mux.HandleFunc("POST /v1/scenarios/synth", s.endpoint("scenario", s.streams, s.handleScenario))
	s.mux.HandleFunc("GET /v1/cluster/healthz", s.endpoint("cluster_health", nil, s.handleClusterHealth))
	s.mux.HandleFunc("POST /v1/cluster/replicate", s.endpoint("replicate", nil, s.handleReplicate))
	if cfg.Debug {
		s.mux.Handle("/debug/", obs.DebugHandler())
	}
	if cfg.Cluster.Advertise != "" {
		if err := s.JoinCluster(cfg.Cluster); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// JoinCluster joins the server to the given cluster, replacing any
// previous membership. It may be called while the server is already
// handling requests: until the join, requests get single-node
// semantics.
func (s *Server) JoinCluster(cfg ClusterConfig) error {
	c, err := newCluster(cfg)
	if err != nil {
		return err
	}
	s.cluster.Store(c)
	obs.Logger().Info("joined cluster", "self", c.self, "members", c.ring.Members())
	return nil
}

// isPeer reports whether r is an intra-cluster request. Peer requests
// are answered from local state only — never forwarded, fetched for,
// or re-replicated — which makes routing loops structurally
// impossible.
func isPeer(r *http.Request) bool { return r.Header.Get(headerPeer) != "" }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the server's profile store.
func (s *Server) Store() *Store { return s.store }

// Traces returns the node's ring buffer of completed request traces.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// ActiveStreams returns the number of synthesis streams in flight.
func (s *Server) ActiveStreams() int64 { return s.active.Load() }

// statusWriter records the status code and body bytes a handler wrote,
// for the per-endpoint error counters and the access log, and forwards
// Flush so streaming handlers keep working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Request-tracing headers. An incoming traceparent wins; a bare
// 32-hex X-Request-Id supplies just the trace ID; otherwise the
// middleware assigns a fresh trace. Every response echoes the trace ID
// as X-Request-Id so callers can correlate without parsing traceparent.
const (
	headerTraceparent = "traceparent"
	headerRequestID   = "X-Request-Id"
)

// startTrace opens the request span for r from its tracing headers.
func (s *Server) startTrace(r *http.Request, name string) (context.Context, *obs.Span) {
	parent, ok := obs.ParseTraceparent(r.Header.Get(headerTraceparent))
	if !ok {
		if id, idOK := obs.ParseTraceID(r.Header.Get(headerRequestID)); idOK {
			parent = obs.SpanContext{TraceID: id}
		}
	}
	ctx, sp := obs.StartRequest(r.Context(), "serve."+name, parent)
	sp.SetHTTP(r.Method, r.URL.Path, isPeer(r))
	return ctx, sp
}

// finishTrace ends the request span, records its trace in the node's
// ring buffer, and emits the access-log line (method, route, status,
// bytes, duration, trace ID, peer flag) when access logging is enabled.
func (s *Server) finishTrace(sp *obs.Span, sw *statusWriter) {
	done := sp.Finish(sw.status, sw.bytes)
	s.traces.Put(done)
	if !obs.AccessLogEnabled() {
		return
	}
	log := s.cfg.AccessLog
	if log == nil {
		log = obs.Logger()
	}
	log.Info("http",
		"method", done.Method, "path", done.Route, "route", done.Name,
		"status", done.Status, "bytes", done.Bytes,
		"dur_ms", float64(done.DurNs)/1e6,
		"trace", done.TraceID, "peer", done.Peer)
}

// endpoint wraps a handler with the production plumbing every route
// shares: the request span (trace extracted from traceparent/
// X-Request-Id or assigned; recorded in the trace ring, the access log
// and the per-endpoint stage histogram — 429s included), the global
// and per-endpoint in-flight limits (429 + Retry-After when
// exhausted), and request/error counters.
func (s *Server) endpoint(name string, lim *limiter, h http.HandlerFunc) http.HandlerFunc {
	reqs := obs.NewCounter("serve." + name + ".requests")
	errs := obs.NewCounter("serve." + name + ".errors")
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := s.startTrace(r, name)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		w.Header().Set(headerRequestID, sp.TraceID().String())
		// The trace outlives everything in the request, including an
		// aborted stream's panic: deferred first so it runs last.
		defer s.finishTrace(sp, sw)
		_, wait := obs.Start(ctx, "limit.wait")
		if !s.global.tryAcquire() {
			wait.End()
			throttle(sw)
			return
		}
		defer s.global.release()
		if !lim.tryAcquire() {
			wait.End()
			throttle(sw)
			return
		}
		defer lim.release()
		wait.End()
		reqs.Inc()
		h(sw, r.WithContext(ctx))
		if sw.status >= 400 {
			errs.Inc()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	diskBytes, diskFiles := s.store.DiskStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"profiles":       s.store.Len(),
		"store_bytes":    s.store.Bytes(),
		"disk_bytes":     diskBytes,
		"disk_files":     diskFiles,
		"active_streams": s.active.Load(),
	})
}

// handleMetrics serves the process metrics registry in Prometheus text
// exposition format (v0.0.4): every counter, gauge and histogram in
// obs.Default, including all serve.* and stage.* series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	obs.Default.WritePrometheus(w)
}

// handleDebugRequests returns the node's most recent completed request
// traces (?n=, default 32), newest first — including the spans and
// trace IDs of peer hops, so one distributed request can be followed
// node by node.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q", q)
			return
		}
		n = v
	}
	if n > s.traces.Cap() {
		n = s.traces.Cap()
	}
	writeJSON(w, http.StatusOK, map[string]any{"requests": s.traces.Recent(n)})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"profiles": s.store.List()})
}

// uploadResponse is the body of a successful POST /v1/profiles.
type uploadResponse struct {
	Meta
	Deduped bool `json:"deduped"`
}

// errTraceTooLarge aborts a streaming fit whose decoded trace exceeds
// Config.MaxTraceBytes. It surfaces to the client as 413.
var errTraceTooLarge = errors.New("serve: decoded trace exceeds the configured size limit")

// cappedReader enforces MaxTraceBytes in decoded-record units while the
// fit is consuming the upload. It reads first and checks after, so the
// record that crosses the cap is never silently dropped — the whole fit
// aborts with errTraceTooLarge instead.
type cappedReader struct {
	r   trace.Reader
	n   uint64
	max uint64
}

func (c *cappedReader) Next(req *trace.Request) error {
	if err := c.r.Next(req); err != nil {
		return err
	}
	c.n++
	if c.n*trace.RequestMemBytes > c.max {
		return errTraceTooLarge
	}
	return nil
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	opts, err := ParseUploadOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	// Every kind of upload is admitted as a flat buffer: a flat upload
	// as sent, anything else as the flat encoding of what it decodes or
	// fits to.
	var p *profile.Profile
	var flat []byte
	switch opts.Kind {
	case KindProfile:
		// The profile encoding is sniffed, not configured: peers
		// replicate in the flat wire format, the CLI uploads gzip
		// canonical, and both land here.
		br := bufio.NewReader(body)
		if hdr, _ := br.Peek(8); profile.SniffFlat(hdr) {
			flat, err = io.ReadAll(br)
			var maxBytesErr *http.MaxBytesError
			if errors.As(err, &maxBytesErr) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"upload exceeds the %d-byte body limit", s.cfg.MaxUploadBytes)
				return
			}
			if err != nil {
				writeError(w, http.StatusBadRequest, "reading profile: %v", err)
				return
			}
		} else if p, err = profile.ReadGzip(br); err != nil {
			writeError(w, http.StatusBadRequest, "decoding profile: %v", err)
			return
		}
	case KindTrace:
		// The body streams straight through the incremental decoder into
		// partitioning and fitting: the fit starts as the first records
		// arrive (chunked uploads fit while the client is still sending)
		// and peak memory is the fit frontier, never the trace. The
		// decoder sniffs raw binary, CSV and gzip bodies by magic.
		d, derr := trace.NewDecoder(body)
		if derr != nil {
			writeError(w, http.StatusBadRequest, "decoding trace: %v", derr)
			return
		}
		var rd trace.Reader = d
		if s.cfg.MaxTraceBytes > 0 {
			rd = &cappedReader{r: d, max: uint64(s.cfg.MaxTraceBytes)}
		}
		// Fit in-process under the request context plus the fit
		// timeout: a disconnected or timed-out client stops dispatching
		// leaf fits instead of burning the worker pool.
		fitCtx := r.Context()
		if s.cfg.FitTimeout > 0 {
			var cancel context.CancelFunc
			fitCtx, cancel = context.WithTimeout(fitCtx, s.cfg.FitTimeout)
			defer cancel()
		}
		fitCtx, fit := obs.Start(fitCtx, "fit.stream")
		p, err = core.BuildStream(opts.Name, rd, opts.Partition, core.Workers(s.cfg.FitWorkers), core.BuildContext(fitCtx))
		fit.End()
		var maxBytesErr *http.MaxBytesError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusServiceUnavailable, "fit exceeded the %s timeout", s.cfg.FitTimeout)
			return
		case errors.Is(err, context.Canceled):
			// The client went away; the status is for the log only.
			writeError(w, http.StatusBadRequest, "fit canceled")
			return
		case errors.Is(err, errTraceTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge,
				"trace exceeds the configured decoded-size limit of %d bytes", s.cfg.MaxTraceBytes)
			return
		case errors.As(err, &maxBytesErr):
			writeError(w, http.StatusRequestEntityTooLarge,
				"upload exceeds the %d-byte body limit", s.cfg.MaxUploadBytes)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, "fitting trace: %v", err)
			return
		}
		if d.Records() == 0 {
			// The sniffing decoder treats an empty body as an empty CSV
			// stream; a fit of nothing is a client error, not a profile.
			writeError(w, http.StatusBadRequest, "decoding trace: empty trace")
			return
		}
		mFitsServed.Inc()
	}
	if p != nil {
		if flat, err = profile.MarshalFlat(p); err != nil {
			writeError(w, http.StatusInternalServerError, "encoding profile: %v", err)
			return
		}
	}
	meta, added, err := s.store.putFlat(flat, "")
	if writePutError(w, err) {
		return
	}
	// A newly-admitted profile is pushed to its ring owner before the
	// response is written, so by the time the uploader learns the ID,
	// any node in the cluster can already resolve it at its canonical
	// location. The push sends the flat bytes the store just admitted.
	// Peer-marked uploads never re-replicate.
	if added {
		if c := s.cluster.Load(); c != nil && !isPeer(r) {
			ctx, repl := obs.Start(r.Context(), "cluster.replicate")
			c.replicate(ctx, meta.ID, flat)
			repl.End()
		}
	}
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	obs.FromContext(r.Context()).Debug("profile stored",
		"id", meta.ID, "name", meta.Name, "leaves", meta.Leaves, "deduped", !added)
	writeJSON(w, status, uploadResponse{Meta: meta, Deduped: !added})
}

// writePutError answers a failed admission — 507 when the store is
// full, 400 when the bytes are not a valid flat profile or do not hash
// to the ID they were sent under, 500 otherwise — and reports whether
// there was an error to answer.
func writePutError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrStoreFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
	case errors.Is(err, profile.ErrFlatFormat), errors.Is(err, errAddressMismatch):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return true
}

// Download media types. Flat downloads are the stored zero-copy
// encoding (docs/FORMAT.md), sent as is; gz downloads are the
// canonical varint encoding wrapped in gzip, the portable interchange
// format.
const (
	contentTypeFlat = "application/x-mocktails-flat-profile"
	contentTypeGz   = "application/gzip"
)

// acquireOrFetch pins profile id, pulling it from the cluster on a
// local miss (fetch-on-miss: the flat bytes are downloaded from the
// peer preference sequence, verified against the content address, and
// admitted into the local store, so subsequent requests for the same
// profile are local). On failure it writes the error response — 404
// when no reachable node holds the profile, 507 when the local store
// cannot admit it — and returns ok=false. Peer-marked requests never
// fetch: they see local state only.
func (s *Server) acquireOrFetch(w http.ResponseWriter, r *http.Request, id string) (*Pin, bool) {
	_, acq := obs.Start(r.Context(), "store.acquire")
	pin, ok := s.store.Acquire(id)
	acq.End()
	if ok {
		return pin, true
	}
	c := s.cluster.Load()
	if c == nil || isPeer(r) {
		writeError(w, http.StatusNotFound, "no profile %q", id)
		return nil, false
	}
	ctx, fetch := obs.Start(r.Context(), "cluster.fetch")
	err := c.fetch(ctx, id, s.cfg.MaxUploadBytes, func(flat []byte) error {
		_, _, err := s.store.putFlat(flat, id)
		return err
	})
	fetch.End()
	if errors.Is(err, ErrStoreFull) {
		writeError(w, http.StatusInsufficientStorage, "%v", err)
		return nil, false
	}
	if err != nil {
		writeError(w, http.StatusNotFound, "no profile %q in the cluster", id)
		return nil, false
	}
	pin, ok = s.store.Acquire(id)
	if !ok {
		// The fetched profile was evicted between Put and Acquire —
		// only possible when the store is thrashing at its budget.
		writeError(w, http.StatusInsufficientStorage, "profile evicted before it could be pinned")
		return nil, false
	}
	return pin, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if dl := r.URL.Query().Get("download"); dl != "" {
		pin, ok := s.acquireOrFetch(w, r, id)
		if !ok {
			return
		}
		defer pin.Release()
		// download=gz re-encodes as gzip; any other value sends the
		// stored flat bytes with no encode. The headers always describe
		// the encoding actually sent.
		w.Header().Set("X-Mocktails-Profile", id)
		var err error
		if dl == "gz" {
			w.Header().Set("Content-Type", contentTypeGz)
			w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".profile.gz"))
			err = profile.WriteGzip(w, pin.View())
		} else {
			buf := pin.View().Bytes()
			w.Header().Set("Content-Type", contentTypeFlat)
			w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+flatExt))
			w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
			_, err = w.Write(buf)
		}
		if err != nil {
			obs.FromContext(r.Context()).Debug("profile download aborted", "id", id, "err", err)
		}
		return
	}
	meta, ok := s.store.Meta(id)
	if !ok {
		// Metadata reads are forwarded rather than fetched: answering
		// "does this profile exist" must not pull megabytes of profile
		// into the local store.
		if c := s.cluster.Load(); c != nil && !isPeer(r) {
			body, status, reachable := c.forwardMeta(r.Context(), id)
			switch {
			case reachable && status == http.StatusOK:
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				w.Write(body)
			case reachable:
				writeError(w, http.StatusNotFound, "no profile %q in the cluster", id)
			default:
				writeError(w, http.StatusBadGateway, "no cluster peer reachable for profile %q", id)
			}
			return
		}
		writeError(w, http.StatusNotFound, "no profile %q", id)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleReplicate admits a profile pushed by a cluster peer: one
// replication frame carrying the claimed content address and the flat
// profile bytes. The payload must hash to that address, which is
// checked before it is decoded — a peer cannot plant bytes under a
// foreign ID.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster.Load() == nil {
		writeError(w, http.StatusServiceUnavailable, "node is not clustered")
		return
	}
	// The frame wraps the payload in a fixed-size header plus the id
	// and checksum; 1 KiB of slack over the upload cap covers it.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes+1024)
	id, payload, err := decodeFrame(body, s.cfg.MaxUploadBytes)
	if err != nil {
		var maxBytesErr *http.MaxBytesError
		if errors.As(err, &maxBytesErr) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"frame exceeds the %d-byte body limit", s.cfg.MaxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	meta, added, err := s.store.putFlat(payload, id)
	if writePutError(w, err) {
		return
	}
	mClusterReplReceived.Inc()
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	obs.FromContext(r.Context()).Debug("profile replicated in",
		"id", meta.ID, "from", r.Header.Get(headerPeer), "deduped", !added)
	writeJSON(w, status, uploadResponse{Meta: meta, Deduped: !added})
}

// handleClusterHealth reports the node's view of the cluster: its ring
// identity, the membership, and a live probe of every peer. A
// non-clustered node answers with mode "single" so the endpoint is
// uniformly scrapeable.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	c := s.cluster.Load()
	if c == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"mode":     "single",
			"profiles": s.store.Len(),
		})
		return
	}
	peers := c.probePeers(r.Context())
	allOK := true
	for _, p := range peers {
		if !p.OK {
			allOK = false
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":     "cluster",
		"self":     c.self,
		"members":  c.ring.Members(),
		"peers":    peers,
		"peers_ok": allOK,
		"profiles": s.store.Len(),
	})
}

// flushWriter flushes the HTTP response after every write reaching it,
// so a synthesis stream is delivered in bounded chunks (the streaming
// encoders buffer 32 KiB internally) instead of accumulating
// server-side.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	f, _ := w.(http.Flusher)
	return &flushWriter{w: w, f: f}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

func (s *Server) handleSynth(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	opts, err := ParseSynthOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pin, ok := s.acquireOrFetch(w, r, id)
	if !ok {
		return
	}
	defer pin.Release()
	count := pin.Meta().Requests
	if opts.N > 0 && opts.N < count {
		count = opts.N
	}

	ctx := r.Context()
	// The view is the store's flat buffer: Put's encoding for a fresh
	// upload, the mmap-ed file for a cold hit promoted from the disk
	// tier. They hold the same bytes, so clients cannot tell the two
	// apart.
	src := synth.NewFrom(pin.View(), opts.Seed, synth.Context(ctx))
	defer src.Close()

	mActiveStreams.Set(float64(s.active.Add(1)))
	defer func() { mActiveStreams.Set(float64(s.active.Add(-1))) }()

	w.Header().Set("X-Mocktails-Profile", id)
	w.Header().Set("X-Mocktails-Requests", strconv.FormatUint(count, 10))
	var written int64
	var werr error
	_, stream := obs.Start(ctx, "synth.stream")
	switch opts.Format {
	case FormatBin:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(trace.BinaryEncodedSize(count), 10))
		written, werr = trace.WriteBinaryStream(ctx, newFlushWriter(w), count, trace.Limit(src, count))
	case FormatCSV:
		w.Header().Set("Content-Type", "text/csv")
		written, werr = trace.WriteCSVStream(ctx, newFlushWriter(w), trace.Limit(src, count))
	}
	stream.SetCount("requests", int64(count))
	stream.SetCount("bytes", written)
	stream.End()
	mSynthBytes.Observe(written)
	switch {
	case werr == nil:
		mSynthStreamed.Add(count)
	case errors.Is(werr, context.Canceled) || errors.Is(werr, context.DeadlineExceeded):
		mSynthCanceled.Inc()
		obs.FromContext(ctx).Debug("synth stream canceled", "id", id, "bytes", written)
	default:
		// The response has already started, so a status can't express
		// the failure; abort the connection instead of sending a
		// well-terminated truncated body the client would mistake for a
		// complete stream.
		obs.FromContext(ctx).Debug("synth stream aborted", "id", id, "bytes", written, "err", werr)
		panic(http.ErrAbortHandler)
	}
}
