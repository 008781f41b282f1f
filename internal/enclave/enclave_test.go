package enclave

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func newTestPlatform(t *testing.T) (*Platform, *AttestationService) {
	t.Helper()
	as, err := NewAttestationService()
	if err != nil {
		t.Fatalf("NewAttestationService: %v", err)
	}
	return NewPlatform(as), as
}

var uaIdentity = CodeIdentity{Name: "pprox-ua", Version: "1.0"}

func TestMeasureIsStableAndDistinct(t *testing.T) {
	a := Measure(uaIdentity)
	b := Measure(uaIdentity)
	if a != b {
		t.Error("measurement of the same identity differs")
	}
	c := Measure(CodeIdentity{Name: "pprox-ia", Version: "1.0"})
	if a == c {
		t.Error("distinct identities share a measurement")
	}
	d := Measure(CodeIdentity{Name: "pprox-ua", Version: "1.1"})
	if a == d {
		t.Error("distinct versions share a measurement")
	}
}

func TestAttestAndProvision(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	secrets := map[string][]byte{"skUA": []byte("private"), "kUA": []byte("permanent")}

	if e.Provisioned() {
		t.Fatal("enclave reports provisioned before provisioning")
	}
	if err := AttestAndProvision(as, e, Measure(uaIdentity), secrets); err != nil {
		t.Fatalf("AttestAndProvision: %v", err)
	}
	if !e.Provisioned() {
		t.Error("enclave not provisioned after successful handshake")
	}
}

func TestAttestationRejectsWrongMeasurement(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(CodeIdentity{Name: "malicious", Version: "1.0"})
	err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")})
	if !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("provisioning to a wrong-measurement enclave: err=%v, want ErrQuoteInvalid", err)
	}
	if e.Provisioned() {
		t.Error("wrong-measurement enclave received secrets")
	}
}

func TestAttestationRejectsForeignTrustAnchor(t *testing.T) {
	// A quote signed by a different attestation service (a fake platform)
	// must not verify.
	_, asGood := newTestPlatform(t)
	pBad, _ := newTestPlatform(t)
	e := pBad.Launch(uaIdentity)
	nonce := []byte("nonce-123")
	q := e.Quote(nonce)
	if err := asGood.Verify(q, Measure(uaIdentity), nonce); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("foreign quote verified: err=%v", err)
	}
}

func TestAttestationRejectsNonceReplay(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	q := e.Quote([]byte("old-nonce"))
	if err := as.Verify(q, Measure(uaIdentity), []byte("fresh-nonce")); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("replayed quote verified: err=%v", err)
	}
}

func TestEcallRequiresProvisioning(t *testing.T) {
	p, _ := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	e.Register("noop", func(s Secrets, kv *KV, in []byte) ([]byte, error) { return in, nil })
	if _, err := e.Ecall("noop", nil); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("Ecall before provisioning: err=%v, want ErrNotProvisioned", err)
	}
}

func TestEcallUnknownEntryPoint(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ecall("missing", nil); !errors.Is(err, ErrUnknownEcall) {
		t.Fatalf("unknown ECALL: err=%v, want ErrUnknownEcall", err)
	}
}

func TestEcallSeesSecretsAndCountsCalls(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	e.Register("echo-secret", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		v, ok := s.Get("kUA")
		if !ok {
			return nil, errors.New("secret missing")
		}
		return v, nil
	})
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"kUA": []byte("key-bytes")}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Ecall("echo-secret", nil)
	if err != nil {
		t.Fatalf("Ecall: %v", err)
	}
	if !bytes.Equal(out, []byte("key-bytes")) {
		t.Errorf("handler saw %q, want provisioned secret", out)
	}
	if got := e.EcallCount(); got != 1 {
		t.Errorf("EcallCount = %d, want 1", got)
	}
}

func TestProvisionCopiesSecrets(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	raw := []byte("mutable")
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": raw}); err != nil {
		t.Fatal(err)
	}
	raw[0] = 'X' // the provisioner's buffer must not alias enclave memory
	e.Register("read", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		v, _ := s.Get("k")
		return v, nil
	})
	out, err := e.Ecall("read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("mutable")) {
		t.Errorf("enclave secret aliased caller memory: %q", out)
	}
}

func TestCompromiseLeaksSecretsAndIsDetected(t *testing.T) {
	p, as := newTestPlatform(t)
	fired := make(chan *Enclave, 1)
	det := NewBreachDetector(time.Millisecond, func(e *Enclave) { fired <- e })
	defer det.Stop()
	p.SetBreachDetector(det)

	e := p.Launch(uaIdentity)
	want := map[string][]byte{"skUA": []byte("priv"), "kUA": []byte("perm")}
	if err := AttestAndProvision(as, e, Measure(uaIdentity), want); err != nil {
		t.Fatal(err)
	}

	loot := e.Compromise()
	if !bytes.Equal(loot["skUA"], want["skUA"]) || !bytes.Equal(loot["kUA"], want["kUA"]) {
		t.Error("compromise did not leak provisioned secrets")
	}
	if !e.Compromised() {
		t.Error("enclave not marked compromised")
	}

	select {
	case breached := <-fired:
		if breached.ID() != e.ID() {
			t.Errorf("countermeasure fired for %q, want %q", breached.ID(), e.ID())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("breach detector never fired")
	}
	if ids := det.Detections(); len(ids) != 1 || ids[0] != e.ID() {
		t.Errorf("Detections() = %v", ids)
	}
}

func TestBreachDetectorDeduplicates(t *testing.T) {
	p, as := newTestPlatform(t)
	var mu sync.Mutex
	count := 0
	det := NewBreachDetector(time.Millisecond, func(*Enclave) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	defer det.Stop()
	p.SetBreachDetector(det)

	e := p.Launch(uaIdentity)
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	e.Compromise()
	e.Compromise()
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Errorf("countermeasure fired %d times, want 1", count)
	}
}

func TestEPCAccounting(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 4) // 4 pages = 16 KiB
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": make([]byte, PageSize)}); err != nil {
		t.Fatal(err)
	}
	used, total := e.EPCUsage()
	if used != 1 || total != 4 {
		t.Fatalf("EPCUsage = (%d,%d), want (1,4)", used, total)
	}

	kv := e.KV()
	if err := kv.Put("resp-1", make([]byte, 2*PageSize)); err != nil {
		t.Fatalf("Put within budget: %v", err)
	}
	if err := kv.Put("resp-2", make([]byte, 2*PageSize)); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("Put beyond budget: err=%v, want ErrEPCExhausted", err)
	}
	kv.Delete("resp-1")
	if err := kv.Put("resp-2", make([]byte, 2*PageSize)); err != nil {
		t.Fatalf("Put after freeing: %v", err)
	}
}

func TestReprovisionReplacesSecretsAndTheirPages(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 4)
	for i := 0; i < 10; i++ {
		if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": make([]byte, PageSize)}); err != nil {
			t.Fatalf("provisioning %d: %v", i, err)
		}
	}
	if used, _ := e.EPCUsage(); used != 1 {
		t.Errorf("EPC pages in use after re-provisioning = %d, want 1: replaced secrets leak pages", used)
	}
}

// TestParsedOncePerProvisioning hammers Secrets.Parsed from a batch
// crossing's concurrent workers: one parse result per secret survives,
// and re-provisioning drops it with the secret it came from.
func TestParsedOncePerProvisioning(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	parse := func(raw []byte) (any, error) { return string(raw), nil }
	e.Register("use", func(s Secrets, _ *KV, _ []byte) ([]byte, error) {
		v, err := s.Parsed("sk", parse)
		if err != nil {
			return nil, err
		}
		return []byte(v.(string)), nil
	})
	e.Register("missing", func(s Secrets, _ *KV, _ []byte) ([]byte, error) {
		_, err := s.Parsed("absent", parse)
		return nil, err
	})
	provision := func(key string) {
		t.Helper()
		if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"sk": []byte(key)}); err != nil {
			t.Fatal(err)
		}
	}

	for _, key := range []string{"old", "new"} {
		provision(key)
		outs, errs, err := e.CallBatch("use", make([][]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if errs[i] != nil || string(outs[i]) != key {
				t.Fatalf("message %d: (%q, %v), want %q", i, outs[i], errs[i], key)
			}
		}
		if names := e.ParsedSecretNames(); len(names) != 1 || names[0] != "sk" {
			t.Fatalf("parsed secrets after provisioning %q = %v, want only sk", key, names)
		}
		if v, _ := e.secrets.parsed.Load("sk"); v != key {
			t.Fatalf("parsed sk after provisioning %q = %v, want the current key", key, v)
		}
	}
	if _, err := e.Ecall("missing", nil); !errors.Is(err, ErrSecretMissing) {
		t.Errorf("parsing an unprovisioned secret: err = %v, want ErrSecretMissing", err)
	}
}

func TestEPCExhaustedAtProvisioning(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 1)
	err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"big": make([]byte, 3*PageSize)})
	if !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("oversized provisioning: err=%v, want ErrEPCExhausted", err)
	}
}

func TestKVSemantics(t *testing.T) {
	p, _ := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	kv := e.KV()

	if err := kv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := kv.Get("a"); !ok || !bytes.Equal(v, []byte("1")) {
		t.Errorf("Get after Put = (%q,%v)", v, ok)
	}
	// Get returns a copy.
	v, _ := kv.Get("a")
	v[0] = 'X'
	if w, _ := kv.Get("a"); !bytes.Equal(w, []byte("1")) {
		t.Error("Get exposed internal storage")
	}
	// Replace releases the old charge and stores the new value.
	if err := kv.Put("a", []byte("22")); err != nil {
		t.Fatal(err)
	}
	if w, _ := kv.Get("a"); !bytes.Equal(w, []byte("22")) {
		t.Error("Put did not replace value")
	}
	// Take consumes exactly once.
	if w, ok := kv.Take("a"); !ok || !bytes.Equal(w, []byte("22")) {
		t.Errorf("Take = (%q,%v)", w, ok)
	}
	if _, ok := kv.Take("a"); ok {
		t.Error("second Take returned a value")
	}
	if kv.Len() != 0 {
		t.Errorf("Len = %d after Take, want 0", kv.Len())
	}
	used, _ := e.EPCUsage()
	if used != 0 {
		t.Errorf("EPC pages still charged after Take: %d", used)
	}
}

func TestKVConcurrentAccess(t *testing.T) {
	p, _ := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	kv := e.KV()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := string(rune('a' + n))
			for j := 0; j < 100; j++ {
				if err := kv.Put(key, []byte{byte(j)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				kv.Get(key)
				kv.Take(key)
			}
		}(i)
	}
	wg.Wait()
	if kv.Len() != 0 {
		t.Errorf("Len = %d, want 0", kv.Len())
	}
}

func TestLaunchAssignsUniqueIDs(t *testing.T) {
	p, _ := newTestPlatform(t)
	a := p.Launch(uaIdentity)
	b := p.Launch(uaIdentity)
	if a.ID() == b.ID() {
		t.Error("two enclaves share an ID")
	}
	if len(p.Enclaves()) != 2 {
		t.Errorf("platform tracks %d enclaves, want 2", len(p.Enclaves()))
	}
}
