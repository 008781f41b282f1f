package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind a timing or ratio; 0 when not a sample
	note  string // e.g. the tail percentile actually reported
}

type report struct {
	header            []string
	correct           bool
	problems          []string
	attempted, failed int
	metrics           []metric
}

func (r *report) add(name, unit string, value float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, note: note})
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) line(format string, args ...any) {
	r.header = append(r.header, fmt.Sprintf(format, args...))
}

// print writes the human report and, last, the one-line JSON result.
func (r *report) print(w io.Writer) {
	for _, h := range r.header {
		fmt.Fprintln(w, h)
	}
	for _, m := range r.metrics {
		fmt.Fprintln(w, m.String())
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, _ := json.Marshal(out) // plain values and finite floats always marshal
	fmt.Fprintln(w, string(b))
}

func (m metric) String() string {
	s := fmt.Sprintf("  %-32s %14.4f %-6s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf(" n=%d", m.n)
	}
	if m.note != "" {
		s += " " + m.note
	}
	return s
}

// window is one measured drive with the counters at its edges.
type window struct {
	res           driveResult
	before, after counters
	heapPeak      uint64
	spans         []span
}

func (n *node) measure(rate float64, dur time.Duration) (window, error) {
	var w window
	var err error
	if n.tr != nil {
		n.tr.take()
	}
	if w.before, err = n.read(); err != nil {
		return w, err
	}
	hs := startHeapSampler()
	w.res = n.drive(rate, dur, 0)
	w.heapPeak = hs.Stop()
	if w.after, err = n.read(); err != nil {
		return w, err
	}
	if n.tr != nil {
		w.spans = n.tr.take()
	}
	return w, nil
}

// Request kinds a latency distribution selects.
type kinds int

const (
	allKinds kinds = iota
	getsOnly
	postsOnly
)

// latencies returns the latencies in ms of the successful timed requests
// of the given kinds.
func (w window) latencies(k kinds) dist {
	var xs []float64
	for _, o := range w.res.timed {
		if o.err == nil && (k == allKinds || o.get == (k == getsOnly)) {
			xs = append(xs, ms(o.lat))
		}
	}
	return newDist(xs)
}

func (w window) lateness() dist {
	xs := make([]float64, len(w.res.timed))
	for i, o := range w.res.timed {
		xs[i] = ms(o.late)
	}
	return newDist(xs)
}

func (w window) timedFailed() int {
	k := 0
	for _, o := range w.res.timed {
		if o.err != nil {
			k++
		}
	}
	return k
}

func (w window) firstErr() error {
	for _, o := range w.res.timed {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// fullEpochRatio is the share of messages the shuffle layers released in
// epochs of exactly S over the window: the privacy guarantee as a number.
func (w window) fullEpochRatio() (ratio float64, released int) {
	b, a := w.before.scrape, w.after.scrape
	sum := delta(b, a, "pprox_proxy_shuffle_batch_size_sum")
	epochs := delta(b, a, "pprox_proxy_shuffle_batch_size_count")
	under := delta(b, a, "pprox_audit_underfilled_epochs_total")
	if sum == 0 {
		return 0, 0
	}
	return shuffleS * (epochs - under) / sum, int(sum)
}

// phase is a timed phase: subWindows back-to-back windows on one
// deployment.
type phase []window

// subWindows is how many windows a timed phase is split into. Each
// end-to-end timing is the median over them: the shared host's speed
// varies from one second to the next, and a slow second then moves one
// window, not the run.
const subWindows = 4

func (n *node) measurePhase(rate float64, dur time.Duration) (phase, error) {
	var p phase
	for i := 0; i < subWindows; i++ {
		w, err := n.measure(rate, dur/subWindows)
		if err != nil {
			return nil, err
		}
		p = append(p, w)
	}
	return p, nil
}

// median is the median over the windows of f.
func (p phase) median(f func(window) float64) float64 {
	xs := make([]float64, len(p))
	for i, w := range p {
		xs[i] = f(w)
	}
	return newDist(xs).q(0.5)
}

// merged pools the windows into one: their requests, their spans, and the
// counters from the first window's start to the last one's end (nothing
// else runs on the deployment in between).
func (p phase) merged() window {
	m := window{before: p[0].before, after: p[len(p)-1].after}
	for _, w := range p {
		m.res.timed = append(m.res.timed, w.res.timed...)
		m.res.issued += w.res.issued
		m.res.gets += w.res.gets
		m.res.posts += w.res.posts
		m.res.acked += w.res.acked
		m.res.failed += w.res.failed
		m.heapPeak = max(m.heapPeak, w.heapPeak)
		m.spans = append(m.spans, w.spans...)
	}
	return m
}

// tailNote names the tail percentile(s) a median over windows used.
func (p phase) tailNote(k kinds) string {
	lo, hi := 1.0, 0.0
	for _, w := range p {
		q := w.latencies(k).tailQ()
		lo, hi = min(lo, q), max(hi, q)
	}
	if lo == hi {
		return fmt.Sprintf("(median of %d windows' p%s)", len(p), pctLabel(lo))
	}
	return fmt.Sprintf("(median of %d windows' p%s–p%s)", len(p), pctLabel(lo), pctLabel(hi))
}

// describe summarizes the phase's timed requests.
func (p phase) describe(rep *report, dur time.Duration) {
	m := p.merged()
	get, post := m.latencies(getsOnly), m.latencies(postsOnly)
	rep.line("timed phase: %d windows of %.1fs; %d requests due (%d gets, %d posts; %d sent in all), %d failed",
		len(p), (dur / subWindows).Seconds(), len(m.res.timed), len(get), len(post), m.res.issued, m.timedFailed())
	rep.line("  pooled get latency ms:  %s", get.describe())
	rep.line("  pooled post latency ms: %s", post.describe())
	rep.line("  generator late ms: %s", m.lateness().describe())
	if len(post) > 0 {
		// Printed, not in the JSON line: the get-only workloads have no
		// posts, and the end-to-end set is the same for every workload.
		rep.line("%s", metric{"post_p50_ms", "ms", p.median(func(w window) float64 { return w.latencies(postsOnly).q(0.5) }), len(post), "median of windows"}.String())
		rep.line("%s", metric{"post_p99_ms", "ms", p.median(func(w window) float64 { return w.latencies(postsOnly).tail() }), len(post), "median of windows' tails"}.String())
	}
}

// check applies the correctness checks to one measured deployment.
func (b *bench) check(rep *report, n *node, w window) {
	if k := w.timedFailed(); k > 0 {
		rep.fail("%d of %d timed requests failed, first: %v", k, len(w.res.timed), w.firstErr())
	}
	if w.res.failed > w.timedFailed() {
		rep.fail("%d untimed requests failed", w.res.failed-w.timedFailed())
	}
	if b.m.postShare > 0 {
		if err := n.checkPosts(); err != nil {
			rep.fail("%v", err)
		} else {
			rep.line("post check: %d acknowledged posts each landed in the log once", n.acked)
		}
	} else {
		checked, err := n.checkAnswers()
		if err != nil {
			rep.fail("%v", err)
		} else {
			rep.line("answer check: %d users' private-path lists equal the LRS's", checked)
		}
	}
	if err := n.checkAuditor(); err != nil {
		rep.fail("%v", err)
	}
	msgs := w.after.uaMsgs - w.before.uaMsgs
	crossings := float64(w.after.uaEcalls-w.before.uaEcalls) / float64(max(msgs, 1))
	if limit := 2.0/shuffleS + 0.05; crossings > limit {
		rep.fail("UA crossings per request %.3f > %.3f", crossings, limit)
	}
}

// endToEnd adds the metrics a user of the system sees, from the untraced
// timed phase.
func endToEnd(rep *report, p phase, maxRate float64, setupS []float64) {
	m := p.merged()
	get, all := m.latencies(getsOnly), m.latencies(allKinds)
	rep.add("get_p50_ms", "ms", p.median(func(w window) float64 { return w.latencies(getsOnly).q(0.5) }), len(get), "median of windows")
	rep.add("get_p99_ms", "ms", p.median(func(w window) float64 { return w.latencies(getsOnly).tail() }), len(get), p.tailNote(getsOnly))
	rep.add("req_p50_ms", "ms", p.median(func(w window) float64 { return w.latencies(allKinds).q(0.5) }), len(all), "gets and posts, median of windows")
	rep.add("req_p99_ms", "ms", p.median(func(w window) float64 { return w.latencies(allKinds).tail() }), len(all), "gets and posts "+p.tailNote(allKinds))
	rep.add("max_rate_rps", "req/s", maxRate, 0, "5% grid; p99 ≤ 300 ms, no failures, no growing backlog")
	attempted, failed := len(m.res.timed), m.timedFailed()
	rep.add("ok_ratio", "ratio", float64(attempted-failed)/float64(max(attempted, 1)), attempted,
		fmt.Sprintf("(error_ratio %.4f)", float64(failed)/float64(max(attempted, 1))))
	ratio, released := m.fullEpochRatio()
	rep.add("full_epoch_ratio", "ratio", ratio, released, "messages released")
	rep.add("cpu_ms_per_req", "ms", p.median(func(w window) float64 {
		return ms(w.after.cpu-w.before.cpu) / float64(max(w.res.issued, 1))
	}), m.res.issued, "requests completed, median of windows")
	rep.add("heap_peak_mb", "MiB", p.median(func(w window) float64 { return float64(w.heapPeak) / (1 << 20) }), 0, "median of windows")
	rep.add("setup_s", "s", newDist(setupS).q(0.5), len(setupS), "median of set-ups")
}

// perLayer adds the per-layer metrics of the traced phase; base is the
// untraced phase of the same run, on the same input streams.
func perLayer(rep *report, base, traced phase, maxRate, decryptUS float64) {
	w := traced.merged()
	spans := w.spans
	orphans, ambiguous := linkLRS(spans)
	kids := children(spans)
	var clientSelf, uaServe, iaFrame, lrsGet, lrsPost, fanout []float64
	for _, s := range spans {
		d := ms(s.dur())
		switch s.Name {
		case spanClient:
			if s.Get {
				clientSelf = append(clientSelf, ms(selfTime(s, kids[s.ID])))
			}
		case spanUA:
			uaServe = append(uaServe, d)
		case spanIAFrame:
			iaFrame = append(iaFrame, d)
			if ks := kids[s.ID]; len(ks) > 0 {
				first, last := ks[0].Start, ks[0].End
				for _, k := range ks {
					first, last = min(first, k.Start), max(last, k.End)
				}
				fanout = append(fanout, ms(time.Duration(last-first)))
			}
		case spanLRS:
			if s.Get {
				lrsGet = append(lrsGet, d)
			} else {
				lrsPost = append(lrsPost, d)
			}
		}
	}
	rep.line("spans: %d (LRS spans with no containing IA frame: %d, with several: %d)", len(spans), orphans, ambiguous)
	b, a := w.before.scrape, w.after.scrape
	res := w.res
	tailNote := func(d dist) string {
		if len(d) == 0 {
			return "no samples"
		}
		return fmt.Sprintf("(p%s)", pctLabel(d.tailQ()))
	}

	self := newDist(clientSelf)
	rep.add("client.self_ms", "ms", self.mean(), len(self), "get span minus its RoundTrip")

	ceiling := float64(runtime.GOMAXPROCS(0)) / (2 * decryptUS / 1e6)
	rep.add("crypto.oaep_decrypt_us", "us", decryptUS, decryptSamples, "median")
	rep.add("crypto.ceiling_rps", "req/s", ceiling, 0, "GOMAXPROCS ÷ 2 decrypts")
	rep.add("crypto.efficiency", "ratio", maxRate/ceiling, 0, "max_rate_rps ÷ ceiling")

	ua := newDist(uaServe)
	rep.add("ua.serve_p50_ms", "ms", ua.q(0.5), len(ua), "ua-0 handler span")
	rep.add("ua.serve_p99_ms", "ms", ua.tail(), len(ua), tailNote(ua))
	wait, waitN := stageMeanMs(b, a, "ua", "shuffle_wait")
	rep.add("ua.shuffle_wait_ms", "ms", wait, waitN, "scraped mean")
	uaEpochs := delta(b, a, "pprox_proxy_shuffle_flushes_total", "layer", "ua")
	uaEcall := stageSumMs(b, a, "ua", "ecall_decrypt") / max(uaEpochs, 1)
	rep.add("ua.ecall_ms_per_epoch", "ms", uaEcall, int(uaEpochs), "epochs")
	msgs := w.after.uaMsgs - w.before.uaMsgs
	rep.add("ua.crossings_per_req", "ratio", float64(w.after.uaEcalls-w.before.uaEcalls)/float64(max(msgs, 1)), int(msgs), "messages")
	rep.add("ua.epoch_size", "count",
		delta(b, a, "pprox_proxy_shuffle_batch_size_sum", "layer", "ua")/max(delta(b, a, "pprox_proxy_shuffle_batch_size_count", "layer", "ua"), 1),
		int(uaEpochs), "epochs")

	frame := newDist(iaFrame)
	fwd, fwdN := stageMeanMs(b, a, "ua", "forward")
	hop := fwd - frame.mean()
	rep.add("hop.ua_ia_ms", "ms", hop, fwdN, "UA forward mean − ia.frame_ms")
	rep.add("hop.http_fallbacks", "count", delta(b, a, "pprox_hopwire_fallbacks_total"), 0, "")

	iaEpochs := delta(b, a, "pprox_proxy_batch_forwards_total", "layer", "ia")
	rep.add("ia.frame_ms", "ms", frame.mean(), len(frame), "mean ia-0 /batch span")
	rep.add("ia.frame_p50_ms", "ms", frame.q(0.5), len(frame), "")
	rep.add("ia.frame_p99_ms", "ms", frame.tail(), len(frame), tailNote(frame))
	rep.add("ia.ecall_decrypt_ms_per_epoch", "ms", stageSumMs(b, a, "ia", "ecall_decrypt")/max(iaEpochs, 1), int(iaEpochs), "epochs")
	rep.add("ia.ecall_reencrypt_ms_per_epoch", "ms", stageSumMs(b, a, "ia", "ecall_reencrypt")/max(iaEpochs, 1), int(iaEpochs), "epochs")
	fan := newDist(fanout)
	rep.add("ia.lrs_fanout_ms", "ms", fan.mean(), len(fan), "first LRS call start to last end, per frame")

	hits := w.after.cache.Hits - w.before.cache.Hits
	lookups := hits + w.after.cache.Misses - w.before.cache.Misses
	rep.add("reccache.hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)), int(lookups), "lookups")
	rep.add("reccache.coalesced", "count", float64(w.after.cache.Coalesced-w.before.cache.Coalesced), 0, "")
	rep.add("lrs.gets_per_get", "ratio", float64(w.after.queries-w.before.queries)/float64(max(res.gets, 1)), res.gets, "gets")

	lg, lp := newDist(lrsGet), newDist(lrsPost)
	rep.add("lrs.get_p50_ms", "ms", lg.q(0.5), len(lg), "lrs-0 /queries span")
	rep.add("lrs.get_p99_ms", "ms", lg.tail(), len(lg), tailNote(lg))
	rep.add("lrs.post_p50_ms", "ms", lp.q(0.5), len(lp), "lrs-0 /events span")
	rep.add("lrs.post_p99_ms", "ms", lp.tail(), len(lp), tailNote(lp))
	applied := w.after.applied - w.before.applied
	applyUS := 0.0
	if applied > 0 {
		applyUS = 1e6 * (w.after.applySec - w.before.applySec) / float64(applied)
	}
	rep.add("lrs.apply_us", "us", applyUS, int(applied), "incremental applies")
	rep.add("lrs.wal_errors", "count", float64(w.after.walErrs-w.before.walErrs), 0, "")
	rep.add("lrs.dup_events", "count", float64(w.after.dups-w.before.dups), 0, "")

	rep.add("proc.allocs_per_req", "count", float64(w.after.allocs-w.before.allocs)/float64(max(res.issued, 1)), res.issued, "requests")
	gcFrac := 0.0
	if all := w.after.allCPU - w.before.allCPU; all > 0 {
		gcFrac = (w.after.gcCPU - w.before.gcCPU) / all
	}
	rep.add("proc.gc_cpu_frac", "ratio", gcFrac, 0, "")

	late := w.lateness()
	rep.add("gen.late_ms_p99", "ms", late.tail(), len(late), tailNote(late))
	rep.add("gen.late_ms_max", "ms", late.q(1), len(late), "")

	getD := w.latencies(getsOnly)
	residual := getD.mean() - (self.mean() + wait + uaEcall + hop + frame.mean())
	rep.add("budget.residual_ms", "ms", residual, len(getD),
		fmt.Sprintf("get mean %.2f − (client self + shuffle wait + UA ECALL + hop + IA frame)", getD.mean()))
	p50 := func(w window) float64 { return w.latencies(getsOnly).q(0.5) }
	on, off := traced.median(p50), base.median(p50)
	rep.add("trace.overhead_pct", "%", 100*(on/off-1), len(getD),
		fmt.Sprintf("traced get p50 %.2f vs untraced %.2f, medians of windows", on, off))
}
