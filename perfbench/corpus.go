package main

import (
	"bytes"
	"fmt"
	"net/url"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// traceSet is the Table II proxy set every workload draws from, in
// popularity order: synth-mix's skewed draw gives the first name the
// largest share, ingest cycles through them in this order.
var traceSet = []string{
	"Crypto1", "CPU-G", "FBC-Tiled1", "Multi-layer",
	"T-Rex1", "Manhattan", "OpenCL1", "HEVC1",
}

// entry is one trace of the set: its gzip upload body (the format
// tracegen writes by default) and the profile the daemon fits from it
// under the default upload options, computed offline as the oracle.
type entry struct {
	Name    string
	Gz      []byte
	Records int
	Prof    *profile.Profile
	ID      string
	Bytes   int64 // canonical encoding size, the store's budget unit
	Flat    int   // flat (disk-tier) encoding size
}

// corpus is the fitted trace set, indexed like traceSet.
type corpus struct {
	entries []*entry
	byName  map[string]*entry
}

// uploadConfig returns the partitioning the daemon uses for a trace
// upload named name, by parsing the same query the benchmark sends.
func uploadConfig(name string) (core.Config, error) {
	o, err := serve.ParseUploadOptions(url.Values{"kind": {"trace"}, "name": {name}})
	return o.Partition, err
}

// buildProfile fits gz exactly as the daemon's upload handler does: an
// incremental decoder feeding core.BuildStream.
func buildProfile(name string, gz []byte) (*profile.Profile, error) {
	cfg, err := uploadConfig(name)
	if err != nil {
		return nil, err
	}
	d, err := trace.NewDecoder(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	return core.BuildStream(name, d, cfg)
}

// loadCorpus generates every trace of the set and fits it offline. The
// result is fixed: it depends on no seed.
func loadCorpus() (*corpus, error) {
	c := &corpus{byName: map[string]*entry{}}
	for _, name := range traceSet {
		spec, err := workloads.Find(name)
		if err != nil {
			return nil, err
		}
		t := spec.Gen()
		var gz bytes.Buffer
		if err := trace.WriteGzip(&gz, t); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", name, err)
		}
		p, err := buildProfile(name, gz.Bytes())
		if err != nil {
			return nil, fmt.Errorf("fitting %s: %w", name, err)
		}
		id, size, err := serve.ProfileID(p)
		if err != nil {
			return nil, err
		}
		flat, err := profile.MarshalFlat(p)
		if err != nil {
			return nil, err
		}
		e := &entry{Name: name, Gz: gz.Bytes(), Records: len(t), Prof: p, ID: id, Bytes: size, Flat: len(flat)}
		c.entries = append(c.entries, e)
		c.byName[name] = e
	}
	return c, nil
}

// totals returns the set's summed canonical and flat bytes and its
// largest canonical size.
func (c *corpus) totals() (canonical, flat, largest int64) {
	for _, e := range c.entries {
		canonical += e.Bytes
		flat += int64(e.Flat)
		largest = max(largest, e.Bytes)
	}
	return canonical, flat, largest
}
