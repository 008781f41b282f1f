// Package enclave simulates the Intel SGX trusted-execution substrate that
// PProx runs its proxy layers in. The paper's implementation uses the Intel
// SGX SDK; this package reproduces, in process, the properties the PProx
// protocol actually depends on:
//
//   - measurement-based remote attestation before key provisioning (§2.2),
//   - an isolation boundary: code outside the enclave (the "server" part of
//     the proxy, §5) handles only opaque bytes and can never read the
//     provisioned secrets,
//   - Enclave Page Cache (EPC) accounting for in-enclave state such as the
//     key-value store holding pending response metadata (§5),
//   - the possibility, central to the adversary model (§2.3), that an
//     attacker mounts a side-channel attack against one enclave and leaks
//     its secrets — modelled by Compromise — together with a breach
//     detector in the spirit of Déjà Vu / Varys (§2.3, footnote 1).
//
// Substitution note (DESIGN.md §1): real SGX is unavailable in this
// environment; the simulation preserves the attested-provisioning and
// single-enclave-compromise behaviours that the security analysis (§6)
// exercises.
package enclave

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the SGX EPC page granularity.
const PageSize = 4096

// DefaultEPCPages models the ~93 MB of usable EPC on the paper's SGX v1
// NUC machines.
const DefaultEPCPages = 23808

// Errors reported by the enclave runtime.
var (
	// ErrNotProvisioned reports an ECALL that needs secrets before any
	// were provisioned.
	ErrNotProvisioned = errors.New("enclave: secrets not provisioned")

	// ErrEPCExhausted reports an allocation beyond the enclave page cache.
	ErrEPCExhausted = errors.New("enclave: EPC exhausted")

	// ErrQuoteInvalid reports a remote-attestation quote that does not
	// verify against the platform's attestation service.
	ErrQuoteInvalid = errors.New("enclave: attestation quote invalid")

	// ErrUnknownEcall reports a call to an unregistered entry point.
	ErrUnknownEcall = errors.New("enclave: unknown ECALL")
)

// CodeIdentity names the code loaded into an enclave. Its measurement is
// what remote attestation proves.
type CodeIdentity struct {
	Name    string
	Version string
}

// Measurement is the SGX MRENCLAVE equivalent: a digest of the enclave's
// code identity.
type Measurement [sha256.Size]byte

// Measure computes the measurement of a code identity.
func Measure(ci CodeIdentity) Measurement {
	return sha256.Sum256([]byte(ci.Name + "\x00" + ci.Version))
}

// Secrets is the read-only view of provisioned key material that ECALL
// handlers receive. It is only ever constructed inside the enclave, once
// per provisioning.
type Secrets interface {
	// Get returns the named secret, or false if it was not provisioned.
	Get(name string) ([]byte, bool)
	// Parsed returns parse applied to the named secret, computed at most
	// once per provisioning (two concurrent first calls may both parse;
	// one result is kept), so handlers do not re-parse key material on
	// every message. Re-provisioning installs a fresh view: parsed values
	// of replaced secrets leave enclave memory with them. A name must
	// always be parsed by the same function; a failed parse is not kept.
	// A secret that was not provisioned fails with ErrSecretMissing.
	Parsed(name string, parse func([]byte) (any, error)) (any, error)
}

// ErrSecretMissing reports a secret that was not provisioned.
var ErrSecretMissing = errors.New("enclave: secret not provisioned")

// secretsView is one provisioning's secrets and the values parsed from
// them.
type secretsView struct {
	raw    map[string][]byte
	pages  int      // EPC pages charged for raw
	parsed sync.Map // name → parse(raw[name])
}

func (s *secretsView) Get(name string) ([]byte, bool) {
	v, ok := s.raw[name]
	return v, ok
}

func (s *secretsView) Parsed(name string, parse func([]byte) (any, error)) (any, error) {
	if v, ok := s.parsed.Load(name); ok {
		return v, nil
	}
	raw, ok := s.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSecretMissing, name)
	}
	v, err := parse(raw)
	if err != nil {
		return nil, err
	}
	v, _ = s.parsed.LoadOrStore(name, v)
	return v, nil
}

// Handler is an ECALL entry point: it runs inside the enclave with access
// to the provisioned secrets and to the in-EPC key-value store, processing
// opaque bytes prepared by the untrusted server.
type Handler func(s Secrets, kv *KV, in []byte) ([]byte, error)

// Enclave is one simulated SGX enclave instance.
type Enclave struct {
	id       string
	identity CodeIdentity
	meas     Measurement
	platform *Platform

	mu          sync.Mutex
	kemPriv     *ecdh.PrivateKey
	secrets     *secretsView
	provisioned bool
	compromised bool
	handlers    map[string]Handler
	kv          *KV

	epcPages     int
	epcUsedPages int

	ecalls        uint64 // enclave crossings (Ecall and CallBatch each count 1)
	msgs          uint64 // messages processed across all crossings
	observer      atomic.Pointer[EcallObserver]
	batchObserver atomic.Pointer[BatchObserver]
	transitionNs  atomic.Int64 // modeled CPU cost per crossing (0 = free)
}

// SetTransitionCost models the CPU a real SGX world switch burns on
// every enclave crossing — register save/restore, TLB flush, and the
// cache/EPC repopulation that follows (tens of microseconds on the
// paper's SGX v1 hardware, more under EPC paging pressure). The default
// is zero: crossings are free, as in a plain function call. When set,
// every crossing — one per Ecall, one per CallBatch regardless of batch
// size — spins the CPU for d, so experiments measure what epoch
// batching actually amortizes. Safe to call concurrently with traffic.
func (e *Enclave) SetTransitionCost(d time.Duration) {
	e.transitionNs.Store(int64(d))
}

// crossTransition pays the modeled world-switch cost. It busy-spins
// rather than sleeping: a transition occupies the core, it does not
// yield it.
func (e *Enclave) crossTransition() {
	ns := e.transitionNs.Load()
	if ns <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(ns))
	for time.Now().Before(deadline) {
	}
}

// EcallObserver receives the name, wall-clock duration, and outcome of
// every ECALL, for the observability layer (ECALL count/duration metrics
// and hop-local tracing). It runs on the caller's goroutine after the
// handler returns, outside the enclave lock, so it must be cheap and
// must not call back into the enclave.
type EcallObserver func(name string, d time.Duration, err error)

// SetEcallObserver installs (or, with nil, removes) the ECALL observer.
// Safe to call concurrently with Ecall.
func (e *Enclave) SetEcallObserver(fn EcallObserver) {
	if fn == nil {
		e.observer.Store(nil)
		return
	}
	e.observer.Store(&fn)
}

// BatchObserver receives one batched crossing: the entry point, how many
// messages the crossing carried, and its total wall-clock duration. Like
// EcallObserver it runs on the caller's goroutine outside the enclave
// lock, after the crossing completes. Ecall does not fire it (a plain
// ECALL is a crossing of one message; the legacy observer covers it).
type BatchObserver func(name string, n int, d time.Duration)

// SetBatchObserver installs (or, with nil, removes) the batch-crossing
// observer. Safe to call concurrently with CallBatch.
func (e *Enclave) SetBatchObserver(fn BatchObserver) {
	if fn == nil {
		e.batchObserver.Store(nil)
		return
	}
	e.batchObserver.Store(&fn)
}

// ID returns the unique enclave instance identifier.
func (e *Enclave) ID() string { return e.id }

// Identity returns the code identity the enclave was launched with.
func (e *Enclave) Identity() CodeIdentity { return e.identity }

// Measurement returns the enclave's measurement.
func (e *Enclave) Measurement() Measurement { return e.meas }

// Platform returns the platform the enclave runs on.
func (e *Enclave) Platform() *Platform { return e.platform }

// Register installs an ECALL entry point. Registration happens at enclave
// construction, before any attestation, and is part of the measured code.
func (e *Enclave) Register(name string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[name] = h
}

// Quote produces a remote-attestation quote over the given nonce, signed by
// the platform's attestation service (the stand-in for Intel's quoting
// enclave + IAS).
func (e *Enclave) Quote(nonce []byte) Quote {
	return e.platform.attestation.quote(e.meas, nonce)
}

// Provision installs the layer's key material after the provisioner has
// verified a quote, replacing any earlier provisioning (and the values
// handlers parsed from it). Keys are copied so the caller cannot retain
// aliases into enclave memory.
func (e *Enclave) Provision(secrets map[string][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	view := &secretsView{raw: make(map[string][]byte, len(secrets))}
	for k, v := range secrets {
		view.raw[k] = append([]byte(nil), v...)
		view.pages += pagesFor(len(v))
	}
	old := 0
	if e.secrets != nil {
		old = e.secrets.pages
	}
	e.epcUsedPages -= old
	if err := e.allocLocked(view.pages); err != nil {
		e.epcUsedPages += old
		return fmt.Errorf("provision secrets: %w", err)
	}
	e.secrets = view
	e.provisioned = true
	return nil
}

// ParsedSecretNames lists the secrets handlers have parsed under the
// current provisioning (see Secrets.Parsed), sorted. Only names leave the
// enclave; tests use it to check that re-provisioning leaves no stale
// parsed key resident.
func (e *Enclave) ParsedSecretNames() []string {
	e.mu.Lock()
	view := e.secrets
	e.mu.Unlock()
	var names []string
	if view != nil {
		view.parsed.Range(func(k, _ any) bool {
			names = append(names, k.(string))
			return true
		})
	}
	sort.Strings(names)
	return names
}

// Provisioned reports whether secrets have been installed.
func (e *Enclave) Provisioned() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.provisioned
}

// Ecall transfers control into the enclave: the named handler runs with
// access to the secrets and the in-EPC KV store. The input and output
// buffers are the only data crossing the boundary.
func (e *Enclave) Ecall(name string, in []byte) ([]byte, error) {
	e.mu.Lock()
	h, ok := e.handlers[name]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownEcall, name)
	}
	if !e.provisioned {
		e.mu.Unlock()
		return nil, ErrNotProvisioned
	}
	secrets := e.secrets
	kv := e.kv
	e.ecalls++
	e.msgs++
	e.mu.Unlock()
	e.crossTransition()

	start := time.Now()
	out, err := h(secrets, kv, in)
	if obs := e.observer.Load(); obs != nil {
		(*obs)(name, time.Since(start), err)
	}
	return out, err
}

// CallBatch transfers control into the enclave ONCE for a whole epoch of
// messages: the named handler runs over every input inside a single
// crossing, amortizing the transition cost the per-message path pays N
// times. The crossing's marshalling buffer — all inputs resident at the
// boundary at once — is charged against the EPC for the crossing's
// duration, so an epoch the EPC cannot hold fails up front with
// ErrEPCExhausted (callers fall back to per-message ECALLs).
//
// outs[i]/errs[i] carry each message's individual outcome; err reports
// crossing-level failures only (unknown ECALL, not provisioned, EPC), in
// which case no handler ran. The crossing counts once toward EcallCount
// and len(ins) times toward MessageCount; the legacy ECALL observer sees
// one crossing, the batch observer sees (name, len(ins), duration).
func (e *Enclave) CallBatch(name string, ins [][]byte) (outs [][]byte, errs []error, err error) {
	if len(ins) == 0 {
		return nil, nil, nil
	}
	e.mu.Lock()
	h, ok := e.handlers[name]
	if !ok {
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownEcall, name)
	}
	if !e.provisioned {
		e.mu.Unlock()
		return nil, nil, ErrNotProvisioned
	}
	total := 0
	for _, in := range ins {
		total += len(in)
	}
	pages := pagesFor(total)
	if err := e.allocLocked(pages); err != nil {
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("batch crossing buffer: %w", err)
	}
	secrets := e.secrets
	kv := e.kv
	e.ecalls++
	e.msgs += uint64(len(ins))
	e.mu.Unlock()
	e.crossTransition()

	// Inside the crossing the epoch is processed by resident enclave
	// worker threads (the switchless-call design: threads stay in the
	// enclave and drain the batch without per-message transitions).
	// Handlers already run concurrently in per-message operation, so
	// parallel use is part of their contract.
	start := time.Now()
	outs = make([][]byte, len(ins))
	errs = make([]error, len(ins))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ins) {
		workers = len(ins)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ins) {
					return
				}
				outs[i], errs[i] = h(secrets, kv, ins[i])
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	e.free(pages)
	if obs := e.observer.Load(); obs != nil {
		(*obs)(name, d, nil)
	}
	if bobs := e.batchObserver.Load(); bobs != nil {
		(*bobs)(name, len(ins), d)
	}
	return outs, errs, nil
}

// EcallCount returns the number of enclave crossings served (a batched
// crossing counts once), used by the breach detector's performance
// monitoring and the crossings-per-request measurements.
func (e *Enclave) EcallCount() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ecalls
}

// MessageCount returns the number of messages processed across all
// crossings: Ecall adds one, CallBatch adds the batch size.
func (e *Enclave) MessageCount() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.msgs
}

// KV returns the enclave's in-EPC key-value store, holding "the information
// necessary for handling requests responses on their way back from the
// LRS" (§5). It is accessible to ECALL handlers.
func (e *Enclave) KV() *KV { return e.kv }

// EPCUsage returns used and total EPC pages.
func (e *Enclave) EPCUsage() (used, total int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epcUsedPages, e.epcPages
}

func (e *Enclave) allocLocked(pages int) error {
	if e.epcUsedPages+pages > e.epcPages {
		return fmt.Errorf("%w: need %d pages, %d of %d in use",
			ErrEPCExhausted, pages, e.epcUsedPages, e.epcPages)
	}
	e.epcUsedPages += pages
	return nil
}

// ChargePages reserves EPC pages for in-enclave state held outside the
// KV store (the recommendation cache). It fails with ErrEPCExhausted
// exactly like a KV allocation would.
func (e *Enclave) ChargePages(n int) error { return e.alloc(n) }

// ReleasePages returns pages previously reserved with ChargePages.
func (e *Enclave) ReleasePages(n int) { e.free(n) }

func (e *Enclave) alloc(pages int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.allocLocked(pages)
}

func (e *Enclave) free(pages int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epcUsedPages -= pages
	if e.epcUsedPages < 0 {
		e.epcUsedPages = 0
	}
}

func pagesFor(bytes int) int {
	if bytes == 0 {
		return 0
	}
	return (bytes + PageSize - 1) / PageSize
}

// Compromise models a successful side-channel attack (§2.3): the adversary
// extracts every secret provisioned to this enclave. The enclave keeps
// functioning — the paper's adversary "does not interfere with the
// functionality of the system" — but the platform's breach detector is
// informed and will fire after its detection latency. The returned map is
// the adversary's loot.
func (e *Enclave) Compromise() map[string][]byte {
	e.mu.Lock()
	loot := map[string][]byte{}
	if e.secrets != nil {
		for k, v := range e.secrets.raw {
			loot[k] = append([]byte(nil), v...)
		}
	}
	e.compromised = true
	e.mu.Unlock()
	e.platform.notifyCompromise(e)
	return loot
}

// Compromised reports whether this enclave's secrets have leaked.
func (e *Enclave) Compromised() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compromised
}

// Platform simulates one SGX-capable machine together with its attestation
// service. Enclaves launched on platforms sharing an AttestationService can
// be verified by the same provisioner, as with Intel's IAS.
type Platform struct {
	attestation *AttestationService

	mu       sync.Mutex
	enclaves []*Enclave
	detector *BreachDetector
	nextID   int
}

// NewPlatform creates a platform backed by the given attestation service.
func NewPlatform(as *AttestationService) *Platform {
	return &Platform{attestation: as}
}

// SetBreachDetector installs the side-channel breach detector notified on
// Compromise.
func (p *Platform) SetBreachDetector(d *BreachDetector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.detector = d
}

// Launch creates an enclave running the given code identity with the
// default EPC size.
func (p *Platform) Launch(ci CodeIdentity) *Enclave {
	return p.LaunchWithEPC(ci, DefaultEPCPages)
}

// LaunchWithEPC creates an enclave with an explicit EPC budget.
func (p *Platform) LaunchWithEPC(ci CodeIdentity, epcPages int) *Enclave {
	p.mu.Lock()
	p.nextID++
	id := fmt.Sprintf("%s-%s#%d", ci.Name, ci.Version, p.nextID)
	p.mu.Unlock()

	e := &Enclave{
		id:       id,
		identity: ci,
		meas:     Measure(ci),
		platform: p,
		handlers: make(map[string]Handler),
		epcPages: epcPages,
	}
	e.kv = newKV(e)

	p.mu.Lock()
	p.enclaves = append(p.enclaves, e)
	p.mu.Unlock()
	return e
}

// Enclaves returns the enclaves launched on this platform.
func (p *Platform) Enclaves() []*Enclave {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Enclave(nil), p.enclaves...)
}

func (p *Platform) notifyCompromise(e *Enclave) {
	p.mu.Lock()
	d := p.detector
	p.mu.Unlock()
	if d != nil {
		d.observe(e)
	}
}

// AttestationService is the stand-in for Intel's quoting infrastructure: it
// signs quotes produced by genuine enclaves and verifies them for remote
// provisioners. The HMAC key models the Intel-rooted trust anchor ("we
// trust Intel for the certification of genuine SGX-enabled CPUs", §2.2).
type AttestationService struct {
	key []byte
}

// NewAttestationService creates an attestation trust anchor.
func NewAttestationService() (*AttestationService, error) {
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("attestation key: %w", err)
	}
	return &AttestationService{key: key}, nil
}

// Quote binds an enclave measurement to a verifier-chosen nonce.
type Quote struct {
	Measurement Measurement
	Nonce       []byte
	MAC         []byte
}

func (as *AttestationService) quote(m Measurement, nonce []byte) Quote {
	mac := hmac.New(sha256.New, as.key)
	mac.Write(m[:])
	mac.Write(nonce)
	return Quote{Measurement: m, Nonce: append([]byte(nil), nonce...), MAC: mac.Sum(nil)}
}

// Verify checks a quote's authenticity and that it matches the expected
// measurement and nonce. This is what the RaaS client application does
// before provisioning layer keys (§4.1).
func (as *AttestationService) Verify(q Quote, want Measurement, nonce []byte) error {
	mac := hmac.New(sha256.New, as.key)
	mac.Write(q.Measurement[:])
	mac.Write(q.Nonce)
	if !hmac.Equal(mac.Sum(nil), q.MAC) {
		return fmt.Errorf("%w: bad signature", ErrQuoteInvalid)
	}
	if q.Measurement != want {
		return fmt.Errorf("%w: measurement mismatch", ErrQuoteInvalid)
	}
	if !hmac.Equal(q.Nonce, nonce) {
		return fmt.Errorf("%w: nonce mismatch (replay?)", ErrQuoteInvalid)
	}
	return nil
}

// AttestAndProvision performs the full provisioning handshake: challenge
// the enclave with a fresh nonce, verify the quote against the expected
// measurement, then install the secrets. It returns ErrQuoteInvalid if the
// enclave is not running the expected code.
func AttestAndProvision(as *AttestationService, e *Enclave, want Measurement, secrets map[string][]byte) error {
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return fmt.Errorf("attestation nonce: %w", err)
	}
	q := e.Quote(nonce)
	if err := as.Verify(q, want, nonce); err != nil {
		return err
	}
	return e.Provision(secrets)
}

// BreachDetector models side-channel attack detection in the spirit of
// Déjà Vu and Varys (§2.3): reported attacks complete in tens of minutes
// while degrading enclave performance, so a monitor can notice and trigger
// countermeasures. The detection latency is configurable; on detection the
// countermeasure callback runs once per breached enclave.
type BreachDetector struct {
	latency time.Duration
	onEvent func(*Enclave)

	mu       sync.Mutex
	detected map[string]time.Time
	timers   []*time.Timer
}

// NewBreachDetector creates a detector firing countermeasures after the
// given detection latency.
func NewBreachDetector(latency time.Duration, countermeasure func(*Enclave)) *BreachDetector {
	return &BreachDetector{
		latency:  latency,
		onEvent:  countermeasure,
		detected: make(map[string]time.Time),
	}
}

func (d *BreachDetector) observe(e *Enclave) {
	d.mu.Lock()
	if _, dup := d.detected[e.ID()]; dup {
		d.mu.Unlock()
		return
	}
	d.detected[e.ID()] = time.Now()
	t := time.AfterFunc(d.latency, func() {
		if d.onEvent != nil {
			d.onEvent(e)
		}
	})
	d.timers = append(d.timers, t)
	d.mu.Unlock()
}

// Detections returns the enclave IDs with observed breaches.
func (d *BreachDetector) Detections() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.detected))
	for id := range d.detected {
		ids = append(ids, id)
	}
	return ids
}

// Stop cancels pending countermeasure timers (for tests and shutdown).
func (d *BreachDetector) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.timers {
		t.Stop()
	}
	d.timers = nil
}
