package main

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{2.5, 7.25, 1.0, 4.0}, 1.375, 3.25, 6.4375},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestDistQuantilesComeFromSamples(t *testing.T) {
	d := newDist([]float64{40, 10, 30, 20})
	if got := d.q(0.5); got != 25 {
		t.Errorf("median = %v, want 25 (interpolated between samples)", got)
	}
	if got := d.q(1); got != 40 {
		t.Errorf("max = %v, want 40", got)
	}
	if q := newDist(make([]float64, 2000)).tailQ(); q != 0.99 {
		t.Errorf("tailQ(2000) = %v, want 0.99", q)
	}
	// 500 samples: the highest percentile with 10 samples beyond it.
	if q := newDist(make([]float64, 500)).tailQ(); math.Abs(q-0.98) > 1e-12 {
		t.Errorf("tailQ(500) = %v, want 0.98", q)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	// Children cover [10,50] and [90,100]: 50 of 100.
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("selfTime = %v, want 50", got)
	}
}

func TestLinkLRSParentsByContainment(t *testing.T) {
	spans := []span{
		{Name: spanIAFrame, ID: 1, Trace: 7, Start: 0, End: 100},
		{Name: spanIAFrame, ID: 2, Trace: 8, Start: 50, End: 200},
		{Name: spanLRS, ID: 3, Start: 10, End: 20},   // frame 1 only
		{Name: spanLRS, ID: 4, Start: 60, End: 90},   // both: latest-starting wins
		{Name: spanLRS, ID: 5, Start: 150, End: 160}, // frame 2 only
		{Name: spanLRS, ID: 6, Start: 210, End: 220}, // none
	}
	orphans, ambiguous := linkLRS(spans)
	if orphans != 1 || ambiguous != 1 {
		t.Errorf("orphans, ambiguous = %d, %d, want 1, 1", orphans, ambiguous)
	}
	want := map[uint64][2]uint64{3: {1, 7}, 4: {2, 8}, 5: {2, 8}, 6: {0, 0}}
	for _, s := range spans[2:] {
		if got := [2]uint64{s.Parent, s.Trace}; got != want[s.ID] {
			t.Errorf("span %d: parent, trace = %v, want %v", s.ID, got, want[s.ID])
		}
	}
}

// TestDriveEndsOnWholeEpochs checks the generator's contract: every timed
// request is answered, arrivals run past the window, and the requests sent
// form whole epochs of S.
func TestDriveEndsOnWholeEpochs(t *testing.T) {
	var inflight, peak atomic.Int64
	call := func(ctx context.Context, r request) error {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return nil
	}
	m, _ := mixByName("post_mix")
	src := newSource(m, historyParams(), 1, 1)
	res := drive(context.Background(), call, src, 2000, 100*time.Millisecond, 0)
	if res.issued%shuffleS != 0 {
		t.Errorf("issued %d requests, not whole epochs of %d", res.issued, shuffleS)
	}
	if len(res.timed) == 0 || len(res.timed) > res.issued {
		t.Fatalf("timed %d of %d issued", len(res.timed), res.issued)
	}
	for i, o := range res.timed {
		if o.lat <= 0 || o.err != nil || o.due >= 100*time.Millisecond {
			t.Fatalf("timed request %d: %+v", i, o)
		}
		if o.lat < o.late {
			t.Fatalf("timed request %d: latency %v below its lateness %v", i, o.lat, o.late)
		}
	}
	if res.gets+res.posts != res.issued || res.acked != res.posts || res.failed != 0 {
		t.Errorf("counts: %+v", res)
	}
	if p := peak.Load(); p > inflightCap {
		t.Errorf("in flight peaked at %d, cap %d", p, inflightCap)
	}
}

func TestSourceIsDeterministicInSeed(t *testing.T) {
	m, _ := mixByName("post_mix")
	a, b := newSource(m, historyParams(), 3, 2), newSource(m, historyParams(), 3, 2)
	for i := 0; i < 100; i++ {
		if ra, rb := a.next(), b.next(); ra != rb {
			t.Fatalf("request %d differs: %+v vs %+v", i, ra, rb)
		}
		if ga, gb := a.gap(100), b.gap(100); ga != gb {
			t.Fatalf("gap %d differs: %v vs %v", i, ga, gb)
		}
	}
}
