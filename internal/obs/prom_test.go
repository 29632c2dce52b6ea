package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"serve.synth.requests", "serve_synth_requests"},
		{"stage.serve.synth.ns", "stage_serve_synth_ns"},
		{"serve.cluster.probe.ns", "serve_cluster_probe_ns"},
		{"already_fine:name", "already_fine:name"},
		{"9lives", "_9lives"},
		{"", "_"},
		{"héllo", "h_llo"},
		{"a-b/c d", "a_b_c_d"},
	}
	for _, tc := range cases {
		if got := PromName(tc.in); got != tc.want {
			t.Errorf("PromName(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if tc.in != "" && !validPromName(PromName(tc.in)) {
			t.Errorf("PromName(%q) is not a valid prometheus name", tc.in)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"all\\three\"\n", `all\\three\"\n`},
	}
	for _, tc := range cases {
		if got := escapeLabelValue(tc.in); got != tc.want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestWritePrometheusOutput pins the exact rendering of a small
// registry: sorted names, TYPE comments, and the cumulative histogram
// triple with the scale's bounds as le labels.
func TestWritePrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.synth.requests").Add(3)
	r.Gauge("serve.streams.active").Set(2.5)
	h := r.Histogram("stage.serve.synth.ns", ScaleNs)
	bounds := ScaleNs.Bounds()
	h.Observe(bounds[0] - 1)             // first bucket
	h.Observe(bounds[0] - 1)             // first bucket again
	h.Observe(bounds[1] - 1)             // second bucket
	h.Observe(bounds[len(bounds)-1] + 1) // overflow -> +Inf only

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	var want strings.Builder
	want.WriteString("# TYPE serve_synth_requests counter\nserve_synth_requests 3\n")
	want.WriteString("# TYPE serve_streams_active gauge\nserve_streams_active 2.5\n")
	want.WriteString("# TYPE stage_serve_synth_ns histogram\n")
	cum := 0
	for i, b := range bounds {
		switch i {
		case 0:
			cum += 2
		case 1:
			cum++
		}
		fmt.Fprintf(&want, "stage_serve_synth_ns_bucket{le=\"%d\"} %d\n", b, cum)
	}
	fmt.Fprintf(&want, "stage_serve_synth_ns_bucket{le=\"+Inf\"} %d\n", cum+1)
	sum := 2*(bounds[0]-1) + bounds[1] - 1 + bounds[len(bounds)-1] + 1
	fmt.Fprintf(&want, "stage_serve_synth_ns_sum %d\n", sum)
	fmt.Fprintf(&want, "stage_serve_synth_ns_count %d\n", cum+1)

	if out != want.String() {
		t.Fatalf("WritePrometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", out, want.String())
	}
}

// TestWritePrometheusValidates feeds the encoder's own output through
// the strict parser: everything the registry can hold must round-trip.
func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.Counter(fmt.Sprintf("serve.c%d.requests", i)).Add(uint64(i * 7))
		r.Gauge(fmt.Sprintf("serve.g%d", i)).Set(float64(i) * 1.25)
		h := r.Histogram(fmt.Sprintf("stage.s%d.ns", i), ScaleNs)
		for j := 0; j < 100; j++ {
			h.Observe(int64(j * j * 1000))
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("encoder output failed validation: %v\n%s", err, buf.String())
	}
	// 5 counters + 5 gauges + 5 histograms x (len(bounds)+1 buckets + sum + count)
	wantSamples := 5 + 5 + 5*(len(ScaleNs.Bounds())+1+2)
	if samples != wantSamples {
		t.Fatalf("validated %d samples, want %d", samples, wantSamples)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"TYPE after samples", "a 1\n# TYPE a counter\n"},
		{"bad metric name", "1bad 1\n"},
		{"bad value", "a one\n"},
		{"bad timestamp", "a 1 nope\n"},
		{"unknown type", "# TYPE a widget\na 1\n"},
		{"bad label name", `a{1b="x"} 1` + "\n"},
		{"unquoted label", `a{b=x} 1` + "\n"},
		{"unknown escape", `a{b="\q"} 1` + "\n"},
		{"unterminated label", `a{b="x} 1` + "\n"},
		{"duplicate label", `a{b="x",b="y"} 1` + "\n"},
		{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
		{"histogram missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"histogram le out of order", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"histogram bucket after inf", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"9\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n"},
		{"histogram bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
	}
	for _, tc := range cases {
		if _, err := ValidateExposition([]byte(tc.doc)); err == nil {
			t.Errorf("%s: ValidateExposition accepted:\n%s", tc.name, tc.doc)
		}
	}

	// And the things it must accept.
	good := "# comment\n# HELP a docstring text\n# TYPE a counter\na 1\n" +
		`b{x="v alue",y="\\\"\n"} 2.5 1700000000000` + "\n" +
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
	if n, err := ValidateExposition([]byte(good)); err != nil || n != 6 {
		t.Fatalf("good document rejected: n=%d err=%v", n, err)
	}
}

// TestPromHandler checks the HTTP wrapper sets the exposition
// content type and serves the Default registry when reg is nil.
func TestPromHandler(t *testing.T) {
	c := NewCounter("obs_test.prom_handler")
	c.Inc()
	rec := httptest.NewRecorder()
	PromHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != PromContentType {
		t.Fatalf("Content-Type = %q, want %q", got, PromContentType)
	}
	// Default is process-global: under -count=N the counter keeps the
	// increments of earlier runs, so match its current value.
	if want := fmt.Sprintf("obs_test_prom_handler %d", c.Value()); !strings.Contains(rec.Body.String(), want) {
		t.Fatal("handler output missing the Default-registry counter")
	}
	if _, err := ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("handler output failed validation: %v", err)
	}
}
