package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/message"
)

// trace.go records spans around the calls into each layer's public entry
// points, from outside the program: the client library call, its
// http.RoundTripper, and every node's http.Handler through
// cluster.Spec.NodeMiddleware. Spans stay in memory until the run ends.
//
// A request's spans (client call, RoundTrip, ua-0 handler) share one
// trace id, carried to the UA in traceHeader; the UA middleware strips
// the header before the proxy sees the request, and the header is set
// only in traced runs. An epoch's spans (the ia-0 frame and the LRS calls
// it makes) share another. Nothing links the two: the shuffle exists to
// break request identity across the UA→IA hop, and the benchmark must not
// restore it. Each LRS span's parent is the IA frame span that contains
// it in time; no enclave observer is installed, since those hooks belong
// to the proxy's own /metrics.

const traceHeader = "X-Perfbench-Trace"

// Span names.
const (
	spanClient    = "client"
	spanRoundTrip = "roundtrip"
	spanUA        = "ua"
	spanIAFrame   = "ia.frame"
	spanLRS       = "lrs"
)

type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Get    bool   `json:"get"` // request kind or LRS route; unused on frames
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	epochs atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded since the last take and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type traceKey struct{}

// traceRef is what a client call hands its RoundTrip: the request's
// trace id and the client span's id.
type traceRef struct{ trace, parent uint64 }

// call wraps one client call in its span and hands its id down the
// context to the RoundTripper.
func (t *tracer) call(ctx context.Context, r request, do func(context.Context, request) error) error {
	ref := traceRef{trace: t.ids.Add(1), parent: t.ids.Add(1)}
	start := t.now()
	err := do(context.WithValue(ctx, traceKey{}, ref), r)
	t.add(span{Name: spanClient, Trace: ref.trace, ID: ref.parent, Get: r.get, Start: start, End: t.now()})
	return err
}

// roundTripper spans the client library's HTTP exchanges.
func (t *tracer) roundTripper(base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{t: t, base: base}
}

type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(traceKey{}).(traceRef)
	if !ok {
		return tt.base.RoundTrip(req)
	}
	id := tt.t.ids.Add(1)
	s := span{Name: spanRoundTrip, Trace: ref.trace, ID: id, Parent: ref.parent,
		Get: req.URL.Path == message.QueriesPath, Start: tt.t.now()}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, fmt.Sprintf("%d.%d", ref.trace, id))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.End = tt.t.now()
		tt.t.add(s)
		return nil, err
	}
	// The exchange ends when the library has read and closed the body.
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// middleware is the cluster.Spec.NodeMiddleware of a traced deployment.
func (t *tracer) middleware(addr string, h http.Handler) http.Handler {
	switch {
	case strings.HasPrefix(addr, "ua-"):
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hdr := r.Header.Get(traceHeader)
			r.Header.Del(traceHeader)
			trace, parent, ok := parseTraceHeader(hdr)
			if !ok {
				h.ServeHTTP(w, r)
				return
			}
			s := span{Name: spanUA, Trace: trace, ID: t.ids.Add(1), Parent: parent,
				Get: r.URL.Path == message.QueriesPath, Start: t.now()}
			h.ServeHTTP(w, r)
			s.End = t.now()
			t.add(s)
		})
	case strings.HasPrefix(addr, "ia-"):
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != message.BatchPath {
				h.ServeHTTP(w, r)
				return
			}
			s := span{Name: spanIAFrame, Trace: t.epochs.Add(1), ID: t.ids.Add(1), Start: t.now()}
			h.ServeHTTP(w, r)
			s.End = t.now()
			t.add(s)
		})
	case strings.HasPrefix(addr, "lrs-"):
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p := r.URL.Path
			if p != message.QueriesPath && p != message.EventsPath {
				h.ServeHTTP(w, r)
				return
			}
			s := span{Name: spanLRS, ID: t.ids.Add(1), Get: p == message.QueriesPath, Start: t.now()}
			h.ServeHTTP(w, r)
			s.End = t.now()
			t.add(s)
		})
	}
	return h
}

func parseTraceHeader(v string) (trace, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	trace, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return trace, parent, err1 == nil && err2 == nil
}

// linkLRS gives each LRS span its parent: the latest-starting IA frame
// span that contains it, whose epoch trace id it takes. It returns how
// many LRS spans had no containing frame and how many had more than one
// (concurrent epochs, resolved to the latest).
func linkLRS(spans []span) (orphans, ambiguous int) {
	var frames []int
	for i, s := range spans {
		if s.Name == spanIAFrame {
			frames = append(frames, i)
		}
	}
	sort.Slice(frames, func(a, b int) bool { return spans[frames[a]].Start < spans[frames[b]].Start })
	for i := range spans {
		s := &spans[i]
		if s.Name != spanLRS {
			continue
		}
		// Frames starting after the LRS call cannot contain it.
		k := sort.Search(len(frames), func(j int) bool { return spans[frames[j]].Start > s.Start })
		found := 0
		for j := k - 1; j >= 0; j-- {
			f := spans[frames[j]]
			if f.End < s.End {
				continue
			}
			if found == 0 {
				s.Parent, s.Trace = f.ID, f.Trace
			}
			found++
		}
		switch {
		case found == 0:
			orphans++
		case found > 1:
			ambiguous++
		}
	}
	return orphans, ambiguous
}

// children indexes spans by parent id.
func children(spans []span) map[uint64][]span {
	out := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	reach = s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.dur() - time.Duration(covered)
}

// writeSpans writes spans as JSON lines, for inspection after the run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
