package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7)
		other, _ := buildWorkload(name, 8)
		for _, set := range []struct {
			name      string
			x, y, oth []request
		}{{"cold", a.Cold, b.Cold, other.Cold}, {"keys", a.Keys, b.Keys, other.Keys}} {
			if !sameRequests(set.x, set.y) {
				t.Errorf("%s: seed 7 gave two different %s sets", name, set.name)
			}
			if sameRequests(set.x, set.oth) {
				t.Errorf("%s: seeds 7 and 8 gave the same %s order", name, set.name)
			}
		}
		sweep := a.schedule(7)
		for i := range goldenAnalyticKeys() {
			if got := sweep.next().Key; got != i {
				t.Fatalf("%s: arrival %d asks for rank %d; the opening sweep should ask for rank %d", name, i, got, i)
			}
		}
		sa, sb := a.schedule(7), b.schedule(7)
		for i := 0; i < 1000; i++ {
			if x, y := sa.next(), sb.next(); x != y {
				t.Fatalf("%s: arrival %d differs: %+v vs %+v", name, i, x, y)
			}
		}
	}
}

func sameRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

// goldenChecker loads the repository's golden grid with no digests.
func goldenChecker(t *testing.T) *checker {
	t.Helper()
	c, err := loadChecker("../testdata/golden_stats.json", "")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// simulateResult builds a checked response for a 2-chiplet bfs simulate
// whose stats are the golden cell's, changed by edit.
func simulateResult(t *testing.T, c *checker, edit func(map[string]any)) result {
	t.Helper()
	rq := newRequest(gpuscale.OpSimulate, gpuscale.TargetSpec{Chiplets: 2}, gpuscale.WorkloadSpec{Bench: "bfs"}, gpuscale.RequestOptions{})
	stats := map[string]any{}
	for k, v := range c.golden["chiplet/bfs/2c"] {
		stats[k] = v
	}
	if len(stats) == 0 {
		t.Fatal("golden grid has no chiplet/bfs/2c cell")
	}
	edit(stats)
	body, err := json.Marshal(map[string]any{"op": "simulate", "mcm_stats": stats})
	if err != nil {
		t.Fatal(err)
	}
	r := result{Req: rq, Tier: "cycle", Hash: "h", Body: body, Sum: sha256.Sum256(body)}
	c.digests[digestKey("cycle", "h")] = hex.EncodeToString(r.Sum[:])
	return r
}

func TestCheckCatchesFlippedByte(t *testing.T) {
	c := goldenChecker(t)
	r := simulateResult(t, c, func(map[string]any) {})
	if err := c.check(&r); err != nil {
		t.Fatalf("golden body rejected: %v", err)
	}
	r.Body = append([]byte(nil), r.Body...)
	r.Body[len(r.Body)/2] ^= 1
	r.Sum = sha256.Sum256(r.Body)
	if err := c.check(&r); err == nil {
		t.Fatal("a body with one flipped byte passed the check")
	}
}

func TestCheckCatchesGoldenMismatch(t *testing.T) {
	c := goldenChecker(t)
	// The digest is recorded from the bad body itself, as a digest file
	// written by a faulty build would be; the golden grid must still fail it.
	r := simulateResult(t, c, func(s map[string]any) { s["Cycles"] = s["Cycles"].(float64) + 1 })
	if err := c.check(&r); err == nil {
		t.Fatal("a simulate body off the golden cell passed the check")
	}
	bad := []byte(`{"scale_models":[{"size":8,"ipc":1.5},{"size":16,"ipc":2.5}]}`)
	if err := c.checkGolden(predictColdSet()[0], "cycle", bad); err == nil {
		t.Fatal("a predict body with non-golden scale-model IPCs passed the check")
	}
}

func TestPercentileAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	if v, beyond := percentile(xs, 99); v != 99 || beyond != 1 {
		t.Errorf("p99 of 1..100 = %v (%d beyond), want 99 (1 beyond)", v, beyond)
	}
	if v, beyond := percentile(xs, 50); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v (%d beyond), want 50 (50 beyond)", v, beyond)
	}
	if m := median(xs); m != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", m)
	}
	if v, p, beyond := tail(xs); v != 90 || p != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = %v at p%v (%d beyond), want 90 at p90 (10 beyond)", v, p, beyond)
	}
	if v, p, beyond := tail(xs[:25]); v != 90 || p != 60 || beyond != 10 {
		t.Errorf("tail of 25 samples = %v at p%v (%d beyond), want 90 at p60 (10 beyond)", v, p, beyond)
	}
	if _, p, _ := tail(xs[:12]); p != 50 {
		t.Errorf("tail of 12 samples at p%v, want the median: rank 2 of 12 is no tail", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	if xs[0] != 100 {
		t.Error("percentile helpers reordered their input")
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		w.Header().Set("X-Cache", "memory")
	}))
	defer srv.Close()
	arrivals := []arrival{{Due: 0}, {Due: time.Millisecond}, {Due: 2 * time.Millisecond}}
	i := 0
	next := func() arrival { a := arrivals[i%len(arrivals)]; i++; return a }
	d := &loader{base: srv.URL}
	_, open, _ := d.run(context.Background(), phase{keys: []request{{Op: "predict", Body: []byte("{}")}}, next: next, openLimit: 3})
	if len(open) != 3 {
		t.Fatalf("sent %d open-loop requests, want 3", len(open))
	}
	for _, r := range open[1:] {
		if r.Fail != "" {
			t.Fatal(r.Fail)
		}
		if r.Latency() < 45*time.Millisecond {
			t.Errorf("request due at %v: latency %v, want the 50ms stall ahead of it charged", r.Due, r.Latency())
		}
		if r.Lag() < 45*time.Millisecond {
			t.Errorf("request due at %v sent %v late, want it held behind the stall", r.Due, r.Lag())
		}
		if service := r.Done - r.Sent; service > 40*time.Millisecond {
			t.Errorf("request due at %v took %v itself; the stall should sit in its wait, not its service", r.Due, service)
		}
	}
}
