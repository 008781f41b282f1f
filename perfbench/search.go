package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"pprox/internal/ppcrypto"
)

// The max-rate search: the highest rate on the grid nominal × 1.05^k at
// which a probe meets the latency limit with no failures and no growing
// backlog.
const (
	// probeWindow is each probe's timed window, judged in probeParts
	// consecutive parts by due time.
	probeWindow = 3 * time.Second
	probeParts  = 3
	// latencyLimit is the p99 limit (ms) max_rate_rps must meet.
	latencyLimit = 300.0
	// lateLimit bounds the generator's p99 lateness (ms) in a passing
	// part. Below capacity the generator runs a few ms late at worst (it
	// shares the CPUs with the epochs' decrypt bursts); past capacity it
	// waits for a free connection with in-flight at the cap, and its
	// lateness grows with the backlog.
	lateLimit = 100.0
)

type probeResult struct {
	rate  float64
	pass  bool
	parts []string
	why   string
}

func (p probeResult) String() string {
	v := "pass"
	if !p.pass {
		v = "fail"
	}
	return fmt.Sprintf("%7.1f: %s %s [%s]", p.rate, v, p.why, strings.Join(p.parts, " | "))
}

// probe drives one continuous window at rate. The window passes when no
// request fails and at least two of its three parts meet the latency and
// lateness limits. The host's speed varies from one second to the next,
// so a single slow second fails one part, while a growing backlog fails
// every part after it begins.
func (n *node) probe(rate float64) probeResult {
	res := n.drive(rate, probeWindow, time.Second)
	p := probeResult{rate: rate}
	passed := 0
	for i := 0; i < probeParts; i++ {
		from, to := probeWindow*time.Duration(i)/probeParts, probeWindow*time.Duration(i+1)/probeParts
		var part window
		for _, o := range res.timed {
			if o.due >= from && o.due < to {
				part.res.timed = append(part.res.timed, o)
			}
		}
		ok, desc := part.withinLimits()
		if ok {
			passed++
		}
		p.parts = append(p.parts, desc)
	}
	switch {
	case res.failed > 0:
		p.why = fmt.Sprintf("%d failed", res.failed)
	case res.aborted:
		p.why = "generator fell 1s behind"
	case passed*2 < probeParts:
		p.why = fmt.Sprintf("%d of %d parts within the limits", passed, probeParts)
	default:
		p.pass = true
		p.why = fmt.Sprintf("%d of %d parts within the limits", passed, probeParts)
	}
	return p
}

// withinLimits judges one part of a probe.
func (w window) withinLimits() (bool, string) {
	get, post, late := w.latencies(getsOnly), w.latencies(postsOnly), w.lateness()
	ok := len(w.res.timed) > 0 && w.timedFailed() == 0 && late.tail() <= lateLimit
	var desc []string
	for _, c := range []struct {
		name string
		d    dist
	}{{"get", get}, {"post", post}} {
		if len(c.d) == 0 {
			continue
		}
		if c.d.tail() > latencyLimit {
			ok = false
		}
		desc = append(desc, fmt.Sprintf("%s p%s=%.0f", c.name, pctLabel(c.d.tailQ()), c.d.tail()))
	}
	desc = append(desc, fmt.Sprintf("late p%s=%.0f", pctLabel(late.tailQ()), late.tail()))
	return ok, strings.Join(desc, " ")
}

// searchMaxRate finds the highest grid rate that passes a probe. Nominal
// is about half the maximum, so the search bisects [nominal,
// nominal × 1.05^24 ≈ 3.2 × nominal], moving the bracket when an end
// point turns out not to hold.
func (n *node) searchMaxRate() (float64, []probeResult) {
	const span = 24
	var probes []probeResult
	pass := func(k int) bool {
		p := n.probe(gridRate(n.b.m.nominal, k))
		probes = append(probes, p)
		return p.pass
	}
	lo, hi := 0, span
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
		if lo == 0 && hi == 1 && !pass(0) {
			lo, hi = -span, 0
		} else if lo == span-1 && hi == span && pass(span) {
			lo, hi = span, 2*span
		}
	}
	return gridRate(n.b.m.nominal, lo), probes
}

// decryptSamples is how many ppcrypto.DecryptOAEP calls timeDecrypt makes.
const decryptSamples = 200

// timeDecrypt times ppcrypto.DecryptOAEP with the deployment's UA key on
// an otherwise idle process and returns the median in µs.
func timeDecrypt(n *node) (float64, error) {
	block, err := ppcrypto.PadID("perfbench-user")
	if err != nil {
		return 0, err
	}
	key := n.d.UAKeys.Pair
	ct, err := ppcrypto.EncryptOAEP(key.Public, block)
	if err != nil {
		return 0, err
	}
	xs := make([]float64, decryptSamples)
	for i := range xs {
		start := time.Now()
		out, err := ppcrypto.DecryptOAEP(key.Private, ct)
		xs[i] = float64(time.Since(start)) / float64(time.Microsecond)
		if err != nil || !slices.Equal(out, block) {
			return 0, errors.Join(errors.New("decrypt check failed"), err)
		}
	}
	return newDist(xs).q(0.5), nil
}
