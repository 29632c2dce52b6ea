package validate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func simPair(t *testing.T) (dram.Result, dram.Result) {
	t.Helper()
	spec, err := workloads.Find("Crypto1")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Gen()
	p, err := core.Build(spec.Name, tr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := dram.Run(trace.NewReplayer(tr), dram.Default(), 20)
	got := dram.Run(core.SynthesizeFrom(p, 42), dram.Default(), 20)
	return ref, got
}

func TestCompareSelfIsZero(t *testing.T) {
	ref, _ := simPair(t)
	c := Compare(ref, ref)
	if c.MaxError() != 0 || c.MeanError() != 0 {
		t.Errorf("self-comparison errors: mean %v max %v", c.MeanError(), c.MaxError())
	}
}

func TestCompareCoversCoreMetrics(t *testing.T) {
	ref, got := simPair(t)
	c := Compare(ref, got)
	names := map[string]bool{}
	for _, m := range c.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"read bursts", "write bursts", "read row hits",
		"write row hits", "avg read queue", "avg write queue", "avg latency",
		"ch0 reads/turnaround", "ch3 reads/turnaround"} {
		if !names[want] {
			t.Errorf("missing metric %q", want)
		}
	}
}

func TestCompareMocktailsCloneReasonable(t *testing.T) {
	ref, got := simPair(t)
	c := Compare(ref, got)
	if c.MeanError() > 20 {
		t.Errorf("clone mean error %.2f%% implausibly high", c.MeanError())
	}
	// Burst counts are exact under strict convergence.
	for _, m := range c.Metrics {
		if (m.Name == "read bursts" || m.Name == "write bursts") && m.PercentErr != 0 {
			t.Errorf("%s error %.2f%%, want 0 (strict convergence)", m.Name, m.PercentErr)
		}
	}
}

func TestWorstAndMeanConsistent(t *testing.T) {
	ref, got := simPair(t)
	c := Compare(ref, got)
	if c.Worst().PercentErr != c.MaxError() {
		t.Error("Worst() disagrees with MaxError()")
	}
	if c.MeanError() > c.MaxError() {
		t.Error("mean error exceeds max error")
	}
}

func TestEmptyComparison(t *testing.T) {
	var c Comparison
	if c.MeanError() != 0 || c.MaxError() != 0 {
		t.Error("empty comparison has nonzero errors")
	}
	if c.Worst().Name != "" {
		t.Error("empty comparison has a worst metric")
	}
}

func TestCompareChannelCountMismatch(t *testing.T) {
	ref, _ := simPair(t)

	metricNames := func(c Comparison) map[string]bool {
		names := map[string]bool{}
		for _, m := range c.Metrics {
			names[m.Name] = true
		}
		return names
	}

	t.Run("candidate has fewer channels", func(t *testing.T) {
		got := ref
		got.Channels = got.Channels[:2]
		c := Compare(ref, got)
		names := metricNames(c)
		if !names["channel count"] {
			t.Fatal("missing channel count mismatch metric")
		}
		for _, m := range c.Metrics {
			if m.Name == "channel count" {
				if m.Reference != 4 || m.Measured != 2 || m.PercentErr == 0 {
					t.Errorf("channel count metric = %+v", m)
				}
			}
		}
		if names["ch2 reads/turnaround"] || names["ch3 reads/turnaround"] {
			t.Error("comparison includes channels the candidate does not have")
		}
		if c.MaxError() == 0 {
			t.Error("channel mismatch not reflected in MaxError")
		}
	})

	t.Run("candidate has extra channels", func(t *testing.T) {
		got := ref
		got.Channels = append(append([]dram.ChannelStats{}, ref.Channels...), ref.Channels[0])
		c := Compare(ref, got)
		names := metricNames(c)
		if !names["channel count"] {
			t.Fatal("missing channel count mismatch metric")
		}
		if !names["ch3 reads/turnaround"] {
			t.Error("common channels no longer compared")
		}
	})

	t.Run("equal channel counts add no metric", func(t *testing.T) {
		if metricNames(Compare(ref, ref))["channel count"] {
			t.Error("channel count metric reported for matching results")
		}
	})
}

func TestFprintFormat(t *testing.T) {
	ref, got := simPair(t)
	var sb strings.Builder
	Compare(ref, got).Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"metric", "read row hits", "mean error"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
