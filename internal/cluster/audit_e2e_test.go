package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/faults"
	"pprox/internal/message"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/ppcrypto"
)

// getBatch issues size concurrent gets and waits for them, so the batch
// forms one shuffle epoch; it returns how many failed.
func getBatch(t *testing.T, d *cluster.Deployment, size, tag int) int {
	t.Helper()
	cl := d.Client(10 * time.Second)
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := 0
	for i := 0; i < size; i++ {
		u := fmt.Sprintf("audit-user-%d-%d", tag, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := cl.Get(ctx, u); err != nil {
				mu.Lock()
				failed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed
}

// TestAuditorFlagsInjectedUnderfilledEpoch is the end-to-end SLO drill:
// a fault injector swallows part of one batch before the UA shuffler, so
// its survivors leave on the flush timer as an under-filled epoch, and
// the deployed auditor must transition to violated — observable through
// the same /metrics and /privacy endpoints an operator scrapes.
func TestAuditorFlagsInjectedUnderfilledEpoch(t *testing.T) {
	const s = 8
	const dropped = 3
	inj := faults.NewInjector(1)
	defer inj.Close()

	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 100 * time.Millisecond,
		UseStub:        true,
		Audit:          &audit.Config{},
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if addr == "ua-0" {
				return inj.Middleware(h)
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for b := 0; b < 2; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("healthy batch %d: %d gets failed", b, failed)
		}
	}
	if st := d.Auditor.State(); st != audit.StateOK {
		t.Fatalf("auditor state after healthy traffic = %v, want ok", st)
	}

	inj.Arm(faults.Rule{Kind: faults.KindError, Status: http.StatusServiceUnavailable, Count: dropped})
	if failed := getBatch(t, d, s, 2); failed != dropped {
		t.Fatalf("faulty batch: %d gets failed, want %d", failed, dropped)
	}
	// The survivors leave on the flush timer; wait out the IA hop too.
	time.Sleep(400 * time.Millisecond)

	if st := d.Auditor.State(); st != audit.StateViolated {
		t.Fatalf("auditor state after under-filled epoch = %v, want violated", st)
	}

	// The operator's view over the wire.
	httpClient := d.HTTPClient(5 * time.Second)
	resp, err := httpClient.Get("http://ua-0/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped := metrics.ParseExposition(string(body))
	if v := scraped["pprox_audit_slo_state"]; v != float64(audit.StateViolated) {
		t.Errorf("pprox_audit_slo_state = %g, want %d", v, audit.StateViolated)
	}
	if v := scraped["pprox_audit_underfilled_epochs_total"]; v < 1 {
		t.Errorf("pprox_audit_underfilled_epochs_total = %g, want ≥ 1", v)
	}
	if v := scraped["pprox_audit_violations_total"]; v < 1 {
		t.Errorf("pprox_audit_violations_total = %g, want ≥ 1", v)
	}

	resp, err = httpClient.Get("http://ua-0" + audit.PrivacyPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep audit.Report
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != audit.StateViolated.String() {
		t.Errorf("/privacy state = %q, want violated", rep.State)
	}
	if want := s - dropped; rep.WorstEpochBatch != want {
		t.Errorf("/privacy worst epoch batch = %d, want %d", rep.WorstEpochBatch, want)
	}
}

// syncWriter is a mutex-guarded sink for concurrent structured logs.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestStructuredLogsRedactIdentifiers runs a full workload with the
// deployment-wide logger at debug level — the chattiest configuration —
// and asserts the combined output of every component never contains a
// raw user ID, item ID, or pseudonym.
func TestStructuredLogsRedactIdentifiers(t *testing.T) {
	const s = 4
	var sink syncWriter
	logger := obslog.New(&sink, "cluster", obslog.ParseLevel("debug"))

	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 100 * time.Millisecond,
		Audit:          &audit.Config{},
		Logger:         logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl := d.Client(10 * time.Second)
	ctx := context.Background()
	var users, items []string
	for b := 0; b < 2; b++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			u := fmt.Sprintf("log-secret-user-%d-%d", b, i)
			it := fmt.Sprintf("log-secret-item-%d-%d", b, i)
			users = append(users, u)
			items = append(items, it)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := cl.Post(ctx, u, it, ""); err != nil {
					t.Errorf("post: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	if err := d.Engine.TrainNow(); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			u := users[b*s+i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cl.Get(ctx, u); err != nil {
					t.Errorf("get: %v", err)
				}
			}()
		}
		wg.Wait()
	}

	logs := sink.String()
	if !strings.Contains(logs, "event ingested") {
		t.Fatalf("debug logging produced no ingestion lines — redaction untested:\n%s", logs)
	}
	for _, u := range users {
		if strings.Contains(logs, u) {
			t.Errorf("structured logs contain raw user ID %q", u)
		}
		p, err := ppcrypto.Pseudonymize(d.UAKeys.Permanent, u)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(logs, message.Encode64(p)) {
			t.Errorf("structured logs contain the pseudonym of %q", u)
		}
	}
	for _, it := range items {
		if strings.Contains(logs, it) {
			t.Errorf("structured logs contain raw item ID %q", it)
		}
		p, err := ppcrypto.Pseudonymize(d.IAKeys.Permanent, it)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(logs, message.Encode64(p)) {
			t.Errorf("structured logs contain the pseudonym of item %q", it)
		}
	}
}

// TestMultiIAEpochsLeaveWhole is the regression test for the linking
// hazard of forwarding UA epochs message by message: with two IA
// instances a balancer spread one UA epoch over both, and each IA then
// released its share as an under-filled epoch on its flush timer — an
// anonymity set of about S/2 on the IA→LRS link. Every epoch now leaves
// the UA as one frame and reaches one IA whole, so lock-step epochs of S
// gets must never under-fill an IA epoch.
func TestMultiIAEpochsLeaveWhole(t *testing.T) {
	const s = 10
	const epochs = 4
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             2,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		// Generous: a split epoch would sit out this timer and then
		// leave under-filled, so a healthy run never reaches it.
		ShuffleTimeout: 2 * time.Second,
		UseStub:        true,
		Audit:          &audit.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for b := 0; b < epochs; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("epoch %d: %d gets failed", b, failed)
		}
	}

	resp, err := d.HTTPClient(5 * time.Second).Get("http://ua-0/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped := metrics.ParseExposition(string(body))
	if v := scraped["pprox_audit_underfilled_epochs_total"]; v != 0 {
		t.Errorf("pprox_audit_underfilled_epochs_total = %g, want 0: an IA released part of a UA epoch", v)
	}
	if st := d.Auditor.State(); st != audit.StateOK {
		t.Errorf("auditor state = %v, want ok", st)
	}
	var iaEpochs uint64
	for _, ia := range d.IALayers {
		flushes, _ := ia.Shuffler().Stats()
		iaEpochs += flushes
	}
	if iaEpochs != epochs {
		t.Errorf("IA epochs = %d across both instances, want %d (one per UA epoch)", iaEpochs, epochs)
	}
}
