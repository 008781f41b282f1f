package main

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"pprox/internal/audit"
	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/workload"
)

// The shipped deployment, the same for every workload.
const (
	shuffleS = 16
	// shuffleTimeout only fires when traffic starves: at the nominal
	// rates an epoch of S fills in well under it.
	shuffleTimeout = time.Second
	// ecallCost models an SGX crossing, as the pprox-bench scenarios do.
	ecallCost = 100 * time.Microsecond
	lrsShards = 4

	warmup        = time.Second
	clientTimeout = 10 * time.Second
)

// shippedSpec is the configuration ROADMAP item 3 makes the only one: the
// epoch-batched, framed hop pipeline with every privacy feature on.
func shippedSpec(walDir string) cluster.Spec {
	return cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		Shuffle: shuffleS, ShuffleTimeout: shuffleTimeout,
		Batch: true, Hopwire: true,
		EcallCost:      ecallCost,
		Cache:          true,
		LRSShards:      lrsShards,
		LRSWALDir:      walDir,
		LRSIncremental: true,
		Audit:          &audit.Config{},
	}
}

// bench holds one run's generated inputs.
type bench struct {
	m       mix
	seed    int64
	hist    workload.Params
	ds      *workload.Dataset
	catalog map[string]bool
	workdir string
}

func newBench(m mix, seed int64, workdir string) *bench {
	hist := historyParams()
	catalog := make(map[string]bool, hist.Items)
	for i := 0; i < hist.Items; i++ {
		catalog[workload.ItemID(i)] = true
	}
	return &bench{m: m, seed: seed, hist: hist, ds: workload.Generate(hist), catalog: catalog, workdir: workdir}
}

// node is one deployment brought up for one phase of a run.
type node struct {
	b         *bench
	d         *cluster.Deployment
	walDir    string
	tr        *tracer // nil in untraced phases
	transport *http.Transport
	cl        *client.Client
	scrape    *http.Client
	setup     time.Duration
	drives    int

	// Counters since preload, for the exactly-once check on posts.
	events0 int
	dups0   uint64
	acked   int
}

// setup deploys, preloads the history and warms up: everything setup_s
// times.
func (b *bench) setup(traced bool) (_ *node, err error) {
	start := time.Now()
	walDir, err := os.MkdirTemp(b.workdir, "wal-")
	if err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	n := &node{b: b, walDir: walDir}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	spec := shippedSpec(walDir)
	if traced {
		n.tr = newTracer()
		spec.NodeMiddleware = n.tr.middleware
	}
	if n.d, err = cluster.Deploy(spec); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if err := n.preload(); err != nil {
		return nil, err
	}
	n.transport = &http.Transport{
		DialContext:         n.d.Balancer.DialContext,
		MaxConnsPerHost:     inflightCap,
		MaxIdleConnsPerHost: inflightCap,
		IdleConnTimeout:     30 * time.Second,
	}
	var rt http.RoundTripper = n.transport
	if n.tr != nil {
		rt = n.tr.roundTripper(rt)
	}
	n.cl = client.New(proxy.Bundle(n.d.UAKeys, n.d.IAKeys), &http.Client{Timeout: clientTimeout, Transport: rt}, n.d.Entry)
	n.scrape = n.d.HTTPClient(5 * time.Second)
	n.events0, n.dups0 = n.d.Engine.EventCount(), n.d.Engine.DupEvents()

	res := n.drive(b.m.nominal, warmup, 0)
	if res.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", res.failed, res.issued)
	}
	if n.tr != nil {
		n.tr.take()
	}
	n.setup = time.Since(start)
	return n, nil
}

// preload inserts the history the way the proxy would store it: users
// pseudonymized under the UA permanent key, items under the IA one,
// base64, then one batch train.
func (n *node) preload() error {
	eng := n.d.Engine
	pseudo := func(key []byte, id string) (string, error) {
		p, err := ppcrypto.Pseudonymize(key, id)
		if err != nil {
			return "", fmt.Errorf("pseudonymize %q: %w", id, err)
		}
		return base64.StdEncoding.EncodeToString(p), nil
	}
	for _, ev := range n.b.ds.Events {
		u, err := pseudo(n.d.UAKeys.Permanent, ev.User)
		if err != nil {
			return err
		}
		it, err := pseudo(n.d.IAKeys.Permanent, ev.Item)
		if err != nil {
			return err
		}
		if _, err := eng.InsertTypedEventIdem(u, it, ev.Rating, "", ""); err != nil {
			return fmt.Errorf("preload insert: %w", err)
		}
	}
	if got, want := eng.EventCount(), len(n.b.ds.Events); got != want {
		return fmt.Errorf("preload: engine holds %d events, inserted %d", got, want)
	}
	if err := eng.TrainNow(); err != nil {
		return fmt.Errorf("preload train: %w", err)
	}
	return nil
}

func (n *node) close() {
	if n.transport != nil {
		n.transport.CloseIdleConnections()
	}
	if n.d != nil {
		n.d.Close()
		n.d.Engine.Close()
	}
	os.RemoveAll(n.walDir)
}

// drive runs one open-loop drive on this node from a fresh input stream.
func (n *node) drive(rate float64, window, abortLate time.Duration) driveResult {
	n.drives++
	src := newSource(n.b.m, n.b.hist, n.b.seed, n.drives)
	call := n.do
	if n.tr != nil {
		call = func(ctx context.Context, r request) error { return n.tr.call(ctx, r, n.do) }
	}
	res := drive(context.Background(), call, src, rate, window, abortLate)
	n.acked += res.acked
	return res
}

// do issues one request through the client library and checks a get's
// answer: a non-empty list of distinct catalog items, no padding.
func (n *node) do(ctx context.Context, r request) error {
	if !r.get {
		return n.cl.Post(ctx, r.user, r.item, r.rating)
	}
	items, err := n.cl.Get(ctx, r.user)
	if err != nil {
		return err
	}
	return n.b.checkItems(items)
}

func (b *bench) checkItems(items []string) error {
	if len(items) == 0 || len(items) > message.MaxRecommendations {
		return fmt.Errorf("bad recommendation list: %d items", len(items))
	}
	seen := make(map[string]bool, len(items))
	for _, it := range items {
		if !b.catalog[it] || seen[it] {
			return fmt.Errorf("bad recommendation list: item %q unknown, padding or repeated", it)
		}
		seen[it] = true
	}
	return nil
}

// checkAnswers compares private-path answers for a sample of users, on
// the quiesced deployment, with what the LRS recommends for the user's
// pseudonym, de-pseudonymized under the IA key. The sample is whole
// epochs, sent at once, so every epoch fills.
func (n *node) checkAnswers() (checked int, err error) {
	src := newSource(n.b.m, n.b.hist, n.b.seed, 0)
	var users []string
	for len(users) < 2*shuffleS {
		if r := src.next(); r.get {
			users = append(users, r.user)
		}
	}
	got := make([][]string, len(users))
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = n.cl.Get(context.Background(), u)
		}()
	}
	wg.Wait()
	for i, u := range users {
		if errs[i] != nil {
			return i, fmt.Errorf("answer check: get %s: %w", u, errs[i])
		}
		want, err := n.expected(u)
		if err != nil {
			return i, err
		}
		if !slices.Equal(got[i], want) {
			return i, fmt.Errorf("answer check: user %s got %v, LRS recommends %v", u, got[i], want)
		}
	}
	return len(users), nil
}

func (n *node) expected(user string) ([]string, error) {
	p, err := ppcrypto.Pseudonymize(n.d.UAKeys.Permanent, user)
	if err != nil {
		return nil, err
	}
	recs := n.d.Engine.Recommend(base64.StdEncoding.EncodeToString(p), message.MaxRecommendations)
	out := make([]string, len(recs))
	for i, r := range recs {
		raw, err := base64.StdEncoding.DecodeString(r)
		if err != nil {
			return nil, fmt.Errorf("LRS item %q: %w", r, err)
		}
		if out[i], err = ppcrypto.Depseudonymize(n.d.IAKeys.Permanent, raw); err != nil {
			return nil, fmt.Errorf("LRS item %q: %w", r, err)
		}
	}
	return out, nil
}

// checkPosts verifies that every acknowledged post landed in the log
// exactly once.
func (n *node) checkPosts() error {
	events := n.d.Engine.EventCount() - n.events0
	dups := n.d.Engine.DupEvents() - n.dups0
	if events != n.acked || dups != 0 {
		return fmt.Errorf("post check: %d posts acknowledged, log grew by %d, %d duplicates dropped", n.acked, events, dups)
	}
	return nil
}

func (n *node) checkAuditor() error {
	if st := n.d.Auditor.State(); st == audit.StateViolated {
		return fmt.Errorf("auditor: privacy SLO %v", st)
	}
	return nil
}
