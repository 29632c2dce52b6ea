// Package conform checks that a Mocktails pipeline run upholds the
// paper's conformance guarantees. It sits across the (original trace,
// profile, synthetic trace) triple and asserts the invariants §III
// promises and §IV's validation relies on:
//
//   - the profile faithfully encodes the original: per-leaf request
//     counts, start bookkeeping, address bounds, and — per feature — the
//     exact multiset of training values captured by each McC model;
//   - the synthetic stream conforms to the profile: timestamps are
//     non-decreasing out of the merger, and strict convergence
//     reproduces the exact multiset of delta-time/stride/op/size
//     feature values (§III-C);
//   - the merged total order is a permutation of per-leaf reference
//     partial orders — Count requests each, addresses wrapped inside the
//     leaf's [Lo, Hi) range — that conform assembles itself from the
//     raw feature draws, nothing dropped and nothing invented.
//
// Violations are collected into a Report rather than returned on first
// failure, so a single run pinpoints every broken invariant. The
// statistical acceptance layer (stat.go) complements these exact checks
// with thresholded distribution distances for the properties that are
// deliberately not exact (whole-trace delta-time and stride mixing).
package conform

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Conformance metrics: full-suite runs, and invariants checked/broken.
var (
	mChecksRun  = obs.NewCounter("conform.checks_run")
	mViolations = obs.NewCounter("conform.violations")
)

// maxDetails bounds how many violations a Report stores verbatim; the
// remainder is counted in Dropped so a badly broken run doesn't produce
// an unbounded report.
const maxDetails = 64

// Violation is one broken invariant.
type Violation struct {
	// Check names the invariant, e.g. "synth/sorted" or
	// "strict-convergence/stride".
	Check string
	// Leaf is the index of the offending leaf, or -1 for whole-trace
	// checks.
	Leaf int
	// Detail is a human-readable description of the mismatch.
	Detail string
}

// String formats the violation.
func (v Violation) String() string {
	if v.Leaf < 0 {
		return fmt.Sprintf("%s: %s", v.Check, v.Detail)
	}
	return fmt.Sprintf("%s: leaf %d: %s", v.Check, v.Leaf, v.Detail)
}

// Report accumulates the outcome of conformance checking.
type Report struct {
	// Violations holds up to maxDetails broken invariants.
	Violations []Violation
	// Dropped counts violations beyond the storage cap.
	Dropped int
	// Leaves is the number of leaves examined.
	Leaves int
	// Requests is the number of synthetic requests examined.
	Requests int
	// Distances holds the statistical acceptance measurements when
	// Check ran them (see FeatureDistances); nil otherwise.
	Distances *Distances
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 && r.Dropped == 0 }

func (r *Report) add(check string, leaf int, format string, args ...any) {
	if len(r.Violations) >= maxDetails {
		r.Dropped++
		return
	}
	r.Violations = append(r.Violations, Violation{
		Check:  check,
		Leaf:   leaf,
		Detail: fmt.Sprintf(format, args...),
	})
}

// merge folds o's findings into r.
func (r *Report) merge(o *Report) {
	for _, v := range o.Violations {
		if len(r.Violations) >= maxDetails {
			r.Dropped++
			continue
		}
		r.Violations = append(r.Violations, v)
	}
	r.Dropped += o.Dropped
	r.Leaves += o.Leaves
	r.Requests += o.Requests
}

// Fprint renders the report.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "conformance: %d leaves, %d requests checked\n", r.Leaves, r.Requests)
	if r.Distances != nil {
		r.Distances.Fprint(w)
	}
	if r.Ok() {
		fmt.Fprintln(w, "conformance: PASS — all invariants hold")
		return
	}
	fmt.Fprintf(w, "conformance: FAIL — %d violation(s)\n", len(r.Violations)+r.Dropped)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  %s\n", v)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(w, "  ... and %d more\n", r.Dropped)
	}
}

// multiset is a value -> occurrence-count map.
type multiset map[int64]int64

func multisetOf(vs []int64) multiset {
	m := make(multiset, len(vs))
	for _, v := range vs {
		m[v]++
	}
	return m
}

// modelMultiset returns the multiset of feature values a McC model
// encodes: for a Constant, n copies of the value; for a Markov chain,
// the initial value plus every transition target, weighted by count.
// Strict convergence guarantees generation of exactly n values
// reproduces this multiset.
func modelMultiset(m *profileModel, n int) multiset {
	ms := make(multiset)
	if n <= 0 {
		return ms
	}
	if m.Constant {
		ms[m.Value] = int64(n)
		return ms
	}
	ms[m.Initial]++
	for j, to := range m.To {
		ms[m.Vals[to]] += int64(m.N[j])
	}
	return ms
}

// diffMultisets describes the first differences between want and got,
// or "" when they are equal.
func diffMultisets(want, got multiset) string {
	keys := make(map[int64]struct{}, len(want)+len(got))
	for v := range want {
		keys[v] = struct{}{}
	}
	for v := range got {
		keys[v] = struct{}{}
	}
	sorted := make([]int64, 0, len(keys))
	for v := range keys {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	diff := ""
	shown := 0
	for _, v := range sorted {
		if want[v] == got[v] {
			continue
		}
		if shown == 3 {
			diff += ", ..."
			break
		}
		if shown > 0 {
			diff += ", "
		}
		diff += fmt.Sprintf("value %d: want %d, got %d", v, want[v], got[v])
		shown++
	}
	return diff
}

// featureSeq extracts one feature's training sequence from a leaf's
// requests, mirroring how profile fitting derives it.
func featureSeq(reqs trace.Trace, feature string) []int64 {
	n := len(reqs)
	var out []int64
	switch feature {
	case "dt":
		out = make([]int64, 0, n-1)
		for i := 1; i < n; i++ {
			out = append(out, int64(reqs[i].Time-reqs[i-1].Time))
		}
	case "stride":
		out = make([]int64, 0, n-1)
		for i := 1; i < n; i++ {
			out = append(out, int64(reqs[i].Addr)-int64(reqs[i-1].Addr))
		}
	case "op":
		out = make([]int64, 0, n)
		for _, r := range reqs {
			out = append(out, int64(r.Op))
		}
	case "size":
		out = make([]int64, 0, n)
		for _, r := range reqs {
			out = append(out, int64(r.Size))
		}
	}
	return out
}

// profileModel names the McC model type carried by profile leaves.
type profileModel = markov.Model

// CheckProfile verifies that p faithfully encodes orig under the given
// partitioning configuration: leaf structure matches a fresh Split,
// per-leaf bookkeeping (count, start time/address, bounds containment)
// is correct, and each feature model's value multiset equals the
// training sequence's multiset — the property strict convergence will
// replay at synthesis time.
func CheckProfile(orig trace.Trace, p *profile.Profile, cfg partition.Config) *Report {
	r := &Report{}
	leaves, err := partition.Split(orig, cfg)
	if err != nil {
		r.add("profile/split", -1, "re-partitioning original failed: %v", err)
		return r
	}
	r.Leaves = len(p.Leaves)
	if len(leaves) != len(p.Leaves) {
		r.add("profile/leaf-count", -1, "profile has %d leaves, re-split of original gives %d",
			len(p.Leaves), len(leaves))
		return r
	}
	total := 0
	for i := range p.Leaves {
		pl := &p.Leaves[i]
		ol := leaves[i]
		total += int(pl.Count)
		if int(pl.Count) != len(ol.Reqs) {
			r.add("profile/leaf-requests", i, "profile Count %d, original partition holds %d",
				pl.Count, len(ol.Reqs))
			continue
		}
		if len(ol.Reqs) == 0 {
			continue
		}
		if pl.StartTime != ol.Reqs[0].Time || pl.StartAddr != ol.Reqs[0].Addr {
			r.add("profile/leaf-start", i, "start (t=%d, 0x%x), original first request (t=%d, 0x%x)",
				pl.StartTime, pl.StartAddr, ol.Reqs[0].Time, ol.Reqs[0].Addr)
		}
		if pl.Lo != ol.Lo || pl.Hi != ol.Hi {
			r.add("profile/leaf-bounds", i, "bounds [0x%x, 0x%x), original partition [0x%x, 0x%x)",
				pl.Lo, pl.Hi, ol.Lo, ol.Hi)
		}
		if pl.Hi > pl.Lo {
			for _, req := range ol.Reqs {
				if req.Addr < pl.Lo || req.Addr >= pl.Hi {
					r.add("profile/leaf-bounds", i, "original address 0x%x outside [0x%x, 0x%x)",
						req.Addr, pl.Lo, pl.Hi)
					break
				}
			}
		}
		n := len(ol.Reqs)
		for _, f := range []struct {
			name  string
			model *profileModel
			want  []int64
			draws int
		}{
			{"dt", &pl.DeltaTime, featureSeq(ol.Reqs, "dt"), n - 1},
			{"stride", &pl.Stride, featureSeq(ol.Reqs, "stride"), n - 1},
			{"op", &pl.Op, featureSeq(ol.Reqs, "op"), n},
			{"size", &pl.Size, featureSeq(ol.Reqs, "size"), n},
		} {
			want := multisetOf(f.want)
			got := modelMultiset(f.model, f.draws)
			if d := diffMultisets(want, got); d != "" {
				r.add("profile/multiset/"+f.name, i, "model multiset differs from training: %s", d)
			}
		}
	}
	if total != len(orig) {
		r.add("profile/total-requests", -1, "leaf counts sum to %d, original has %d requests",
			total, len(orig))
	}
	return r
}

// CheckSynthetic verifies that synthetic is a conforming output of
// New(p, seed). It does not replay the synthesizer: for every leaf it
// draws the raw features under the leaf's seed, asserts they reproduce
// each model's value multiset exactly (strict convergence, §III-C), and
// assembles from them a reference partial order of exactly Count
// requests whose addresses must lie wrapped inside the leaf's [Lo, Hi)
// range. The merged stream must then hold non-decreasing timestamps and
// be exactly the multiset union of the reference partial orders.
func CheckSynthetic(p *profile.Profile, synthetic trace.Trace, seed uint64) *Report {
	r := &Report{Leaves: len(p.Leaves), Requests: len(synthetic)}
	if want := p.Requests(); len(synthetic) != want {
		r.add("synth/total-requests", -1, "synthetic has %d requests, profile demands %d",
			len(synthetic), want)
	}
	if !synthetic.Sorted() {
		for i := 1; i < len(synthetic); i++ {
			if synthetic[i].Time < synthetic[i-1].Time {
				r.add("synth/sorted", -1, "timestamp regression at index %d: %d -> %d",
					i, synthetic[i-1].Time, synthetic[i].Time)
				break
			}
		}
	}

	seeds := synth.LeafSeeds(len(p.Leaves), seed)
	union := make(map[trace.Request]int, len(synthetic))
	for i := range p.Leaves {
		l := &p.Leaves[i]
		f := synth.Features(l, seeds[i])
		checkStrictConvergence(r, l, f, i)
		ref := assemble(l, f)
		if l.Hi > l.Lo {
			for _, req := range ref {
				if req.Addr < l.Lo || req.Addr >= l.Hi {
					r.add("synth/addr-range", i, "address 0x%x escapes [0x%x, 0x%x)",
						req.Addr, l.Lo, l.Hi)
					break
				}
			}
		}
		for _, req := range ref {
			union[req]++
		}
	}

	// The merged stream must be exactly the multiset union of the
	// reference partial orders.
	for _, req := range synthetic {
		union[req]--
	}
	extra, missing := 0, 0
	for _, c := range union {
		if c < 0 {
			extra -= int(c)
		} else if c > 0 {
			missing += int(c)
		}
	}
	if extra > 0 || missing > 0 {
		r.add("synth/merge-multiset", -1,
			"merged stream invents %d request(s) and drops %d vs the per-leaf reference", extra, missing)
	}
	return r
}

// assemble builds leaf l's reference partial order from its raw feature
// draws by the request-assembly rules of §III-C: the first request sits
// at the leaf's recorded (StartTime, StartAddr), and each later one adds
// a delta time clamped at zero and a stride whose result is wrapped
// into [Lo, Hi). It shares no code with the synthesizer's generator
// beyond the feature draws and the value conversions.
func assemble(l *profile.Leaf, f synth.LeafFeatures) trace.Trace {
	if len(f.Ops) == 0 {
		return nil
	}
	t := make(trace.Trace, len(f.Ops))
	tm, addr := l.StartTime, l.StartAddr
	for i := range t {
		if i > 0 {
			tm += uint64(max(f.DeltaTimes[i-1], 0))
			addr = synth.WrapAddr(int64(addr)+f.Strides[i-1], l.Lo, l.Hi)
		}
		t[i] = trace.Request{
			Time: tm,
			Addr: addr,
			Op:   synth.OpFromValue(f.Ops[i]),
			Size: synth.SizeFromValue(f.Sizes[i]),
		}
	}
	return t
}

// checkStrictConvergence asserts the §III-C multiset guarantee for one
// leaf: drawing exactly the training length from each feature generator
// reproduces the model's exact value multiset.
func checkStrictConvergence(r *Report, l *profile.Leaf, f synth.LeafFeatures, idx int) {
	n := int(l.Count)
	for _, c := range []struct {
		name  string
		model *profileModel
		got   []int64
		draws int
	}{
		{"dt", &l.DeltaTime, f.DeltaTimes, n - 1},
		{"stride", &l.Stride, f.Strides, n - 1},
		{"op", &l.Op, f.Ops, n},
		{"size", &l.Size, f.Sizes, n},
	} {
		if len(c.got) != c.draws {
			r.add("strict-convergence/"+c.name, idx, "generated %d values, want %d", len(c.got), c.draws)
			continue
		}
		want := modelMultiset(c.model, c.draws)
		got := multisetOf(c.got)
		if d := diffMultisets(want, got); d != "" {
			r.add("strict-convergence/"+c.name, idx, "generated multiset differs from model: %s", d)
		}
	}
}

// Check runs the full conformance suite over a pipeline triple: the
// profile-vs-original checks, the synthetic-vs-profile checks, and the
// statistical acceptance distances against the given thresholds. cfg
// must be the partition configuration the profile was built with.
func Check(orig trace.Trace, p *profile.Profile, synthetic trace.Trace, cfg partition.Config, seed uint64, th Thresholds) *Report {
	return CheckCtx(context.Background(), orig, p, synthetic, cfg, seed, th)
}

// CheckCtx is Check under tracing spans: the three phases (profile
// invariants, synthetic invariants, statistical acceptance) nest below
// the span carried by ctx. The report is identical to Check's.
func CheckCtx(ctx context.Context, orig trace.Trace, p *profile.Profile, synthetic trace.Trace, cfg partition.Config, seed uint64, th Thresholds) *Report {
	mChecksRun.Inc()
	_, psp := obs.Start(ctx, "conform.profile")
	r := CheckProfile(orig, p, cfg)
	psp.SetCount("leaves", int64(r.Leaves))
	psp.End()
	_, ssp := obs.Start(ctx, "conform.synthetic")
	rs := CheckSynthetic(p, synthetic, seed)
	ssp.SetCount("requests", int64(rs.Requests))
	ssp.End()
	rs.Leaves = 0 // already counted by CheckProfile
	r.merge(rs)
	_, dsp := obs.Start(ctx, "conform.stat")
	d := FeatureDistances(orig, synthetic)
	r.Distances = &d
	d.check(r, th)
	dsp.End()
	mViolations.Add(uint64(len(r.Violations) + r.Dropped))
	return r
}
