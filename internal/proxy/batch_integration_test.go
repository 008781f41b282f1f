package proxy_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/message"
	"pprox/internal/proxy"
	"pprox/internal/reccache"
	"pprox/internal/resilience"
)

// batchPolicy keeps ladder backoffs negligible in tests.
var batchPolicy = &resilience.Policy{
	HopTimeout:  5 * time.Second,
	MaxAttempts: 2,
	BackoffBase: time.Millisecond,
	BackoffMax:  2 * time.Millisecond,
}

// TestBatchEndToEnd drives one full epoch of concurrent gets through the
// batched pipeline and checks the headline property: results identical to
// per-message mode while the UA enclave is crossed ~once per epoch
// instead of once per message.
func TestBatchEndToEnd(t *testing.T) {
	const s = 8
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: 200 * time.Millisecond,
		pairLink:       true,
	})
	ctx := ctxT(t)

	ecallsBefore := st.uaEncl.EcallCount()
	msgsBefore := st.uaEncl.MessageCount()

	errc := make(chan error, s)
	for i := 0; i < s; i++ {
		go func(i int) {
			items, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
			if err == nil && len(items) != message.MaxRecommendations {
				err = fmt.Errorf("got %d items", len(items))
			}
			errc <- err
		}(i)
	}
	for i := 0; i < s; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("batched get: %v", err)
		}
	}

	if got := st.uaEncl.MessageCount() - msgsBefore; got != s {
		t.Errorf("UA enclave messages = %d, want %d", got, s)
	}
	// One ua/get crossing per epoch; allow a second epoch if the timer
	// split the burst.
	if got := st.uaEncl.EcallCount() - ecallsBefore; got > 2 {
		t.Errorf("UA enclave crossings = %d for %d messages, want ≤ 2", got, s)
	}
	stats := st.ua.BatchStats()
	if stats.Batches == 0 || stats.Messages != s {
		t.Errorf("UA batch stats = %+v, want ≥1 batch carrying %d messages", stats, s)
	}
	if stats.Retries != 0 || stats.Splits != 0 || stats.Degraded != 0 {
		t.Errorf("healthy run descended the ladder: %+v", stats)
	}
	iaStats := st.ia.BatchStats()
	if iaStats.Batches == 0 || iaStats.Messages != s {
		t.Errorf("IA batch stats = %+v, want the demultiplexed epoch", iaStats)
	}
	if flushes, _ := st.ia.Shuffler().Stats(); flushes == 0 {
		t.Error("IA shuffler saw no epochs: ReleaseBatch accounting missing")
	}
}

// TestBatchMixedPostsAndGets puts both message kinds in one epoch: the
// pipeline must demultiplex kinds into separate batch ECALLs and routes
// while keeping every result correct.
func TestBatchMixedPostsAndGets(t *testing.T) {
	const s = 6
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: 200 * time.Millisecond,
		pairLink:       true,
	})
	ctx := ctxT(t)

	errc := make(chan error, s)
	for i := 0; i < s/2; i++ {
		go func(i int) {
			errc <- st.client.Post(ctx, fmt.Sprintf("user-%d", i), "item-1", "")
		}(i)
		go func(i int) {
			_, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
			errc <- err
		}(i)
	}
	for i := 0; i < s; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("mixed epoch message %d: %v", i, err)
		}
	}
	if stats := st.ua.BatchStats(); stats.Messages != s {
		t.Errorf("UA batch messages = %d, want %d", stats.Messages, s)
	}
}

// TestBatchDegradationLadder makes the IA refuse every multi-entry
// frame, so the whole-envelope attempts and both split halves fail:
// every message must still succeed in a one-entry frame of its own, and
// the ladder counters must show the descent.
func TestBatchDegradationLadder(t *testing.T) {
	const s = 4
	var batchFails atomic.Int64
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: 100 * time.Millisecond,
		pairLink:       true,
		policy:         batchPolicy,
		iaMiddleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == message.BatchPath && entryCount(r) > 1 {
					batchFails.Add(1)
					http.Error(w, "injected", http.StatusServiceUnavailable)
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	ctx := ctxT(t)

	errc := make(chan error, s)
	for i := 0; i < s; i++ {
		go func(i int) {
			items, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
			if err == nil && len(items) != message.MaxRecommendations {
				err = fmt.Errorf("got %d items", len(items))
			}
			errc <- err
		}(i)
	}
	for i := 0; i < s; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("get during the multi-entry outage: %v", err)
		}
	}

	stats := st.ua.BatchStats()
	if stats.Retries == 0 {
		t.Errorf("no whole-envelope retries recorded: %+v", stats)
	}
	if stats.Splits == 0 {
		t.Errorf("no split sends recorded: %+v", stats)
	}
	if stats.Degraded != s {
		t.Errorf("degraded = %d, want all %d messages", stats.Degraded, s)
	}
	if got := batchFails.Load(); got < 3 {
		t.Errorf("injector saw %d /batch attempts, want ≥ 3 (retry + both halves)", got)
	}
}

// entryCount peeks at a /batch request's frame and restores its body.
func entryCount(r *http.Request) int {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	_, entries, err := message.DecodeBatchFrame(body)
	if err != nil {
		return 0
	}
	return len(entries)
}

// TestBatchWithRecommendationCache runs the batched get path against a
// cache-enabled IA: first epoch misses and fills, second epoch for the
// same users is served from the enclave cache without LRS round trips.
func TestBatchWithRecommendationCache(t *testing.T) {
	const s = 4
	cache := reccache.New(reccache.Config{})
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: 200 * time.Millisecond,
		pairLink:       true,
		recCache:       cache,
	})
	ctx := ctxT(t)

	epoch := func() {
		errc := make(chan error, s)
		for i := 0; i < s; i++ {
			go func(i int) {
				_, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
				errc <- err
			}(i)
		}
		for i := 0; i < s; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("cached-path get: %v", err)
			}
		}
	}
	epoch()
	epoch()
	cache.PublishEpoch()
	stats := cache.Stats()
	if stats.Misses == 0 {
		t.Errorf("cache stats = %+v, want first-epoch misses", stats)
	}
	if stats.Hits == 0 {
		t.Errorf("cache stats = %+v, want second-epoch hits", stats)
	}
}

// TestBatchConfigValidation: every message to the next hop rides a
// hopwire frame, so New must refuse a config without a frame dialer.
func TestBatchConfigValidation(t *testing.T) {
	for _, role := range []proxy.Role{proxy.RoleUA, proxy.RoleIA} {
		if _, err := proxy.New(proxy.Config{
			Role: role, Next: "http://next", PassThrough: true, ShuffleSize: 4,
		}); err == nil {
			t.Errorf("New accepted a %v layer without a HopDialer", role)
		}
	}
}
