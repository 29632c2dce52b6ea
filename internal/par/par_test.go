package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got := Map(257, workers, func(i int) int { return i * i })
		if len(got) != 257 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map(0) returned %d results", len(got))
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	var visits [n]atomic.Int32
	ForEach(n, 7, func(i int) { visits[i].Add(1) })
	for i := range visits {
		if c := visits[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	ForEach(100, 4, func(i int) {
		if i == 42 {
			panic("boom")
		}
	})
}

func TestWorkersNormalise(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	t.Setenv(EnvVar, "5")
	if got := Workers(0); got != 5 {
		t.Fatalf("Workers(0) with %s=5 = %d", EnvVar, got)
	}
	if got := Default(); got != 5 {
		t.Fatalf("Default() with %s=5 = %d", EnvVar, got)
	}
	t.Setenv(EnvVar, "bogus")
	if got := Default(); got < 1 {
		t.Fatalf("Default() with bogus env = %d", got)
	}
}

func BenchmarkMap(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Map(64, workers, func(j int) int {
					s := 0
					for k := 0; k < 10000; k++ {
						s += k ^ j
					}
					return s
				})
			}
		})
	}
}
