package proxy

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pprox/internal/enclave"
	"pprox/internal/message"
	"pprox/internal/resilience"
	"pprox/internal/trace"
)

// This file is the hop pipeline (DESIGN.md §4f), the only path a UA
// request takes to the IA. A shuffle flush hands the whole permuted epoch
// to ONE job that crosses the enclave once per message kind and leaves
// as ONE batch frame over hopwire. The IA demultiplexes the frame,
// batch-processes it, speaks the legacy per-message API to the LRS under
// a bounded fan-out, and returns every result in one frame whose entry
// order is re-permuted by its own shuffler. With shuffling off (S ≤ 1)
// there is no shuffler: each request is its own one-message epoch.
//
// Privacy: a request's frame slot is its position in the shuffler's
// permuted release order, so a wire observer of the UA→IA link sees S
// messages leave together in permuted order and nothing finer. Entry ids
// are those positions (sequential integers minted after the shuffle);
// response entries echo them.

// batchItem is one request riding a shuffle epoch.
type batchItem struct {
	isGet bool
	body  []byte
	ctx   context.Context
	enq   time.Time
	wait  trace.Span       // shuffle_wait span, ended when the epoch runs
	done  chan batchResult // buffered 1: delivery never blocks the pipeline
}

// batchResult resolves one batch item.
type batchResult struct {
	status int
	body   []byte
	err    error
}

// deliver resolves the item once; later deliveries are dropped, which
// makes the at-most-once contract local instead of global.
func (it *batchItem) deliver(res batchResult) {
	select {
	case it.done <- res:
	default:
	}
}

// failBatchItems resolves a whole epoch with one error (pool closed
// before the epoch could run).
func failBatchItems(vals []any, err error) {
	for _, v := range vals {
		if it, ok := v.(*batchItem); ok {
			it.deliver(batchResult{err: err})
		}
	}
}

// handleUA is the UA request path: join the current shuffle epoch
// without blocking a goroutine inside the pipeline, then wait for the
// epoch's job to resolve this message. Without a shuffler the request
// runs as a one-message epoch on its own goroutine.
func (l *Layer) handleUA(ctx context.Context, body []byte, isGet bool) (int, []byte, error) {
	it := &batchItem{
		isGet: isGet,
		body:  body,
		ctx:   ctx,
		enq:   time.Now(),
		done:  make(chan batchResult, 1),
	}
	if l.shuffler == nil {
		l.runBatch([]any{it})
	} else {
		it.wait = l.tracer.Load().Start(StageShuffleWait)
		if err := l.shuffler.Enqueue(it); err != nil {
			return 0, nil, err
		}
	}
	select {
	case res := <-it.done:
		if res.err != nil {
			return 0, nil, res.err
		}
		return res.status, res.body, nil
	case <-ctx.Done():
		// The caller departs; the epoch still processes the message
		// (deliver lands in the buffered channel) and its slot still
		// counts toward the epoch it joined.
		return 0, nil, ctx.Err()
	}
}

// callBatch runs one batched enclave crossing under the data-processing
// worker pool (the paper's fixed in-enclave thread pool, §5), falling
// back to per-message ECALLs when the crossing itself cannot run — most
// notably an epoch whose marshalling buffer the EPC cannot hold.
func (l *Layer) callBatch(name string, ins [][]byte) ([][]byte, []error) {
	l.workers <- struct{}{}
	defer func() { <-l.workers }()
	outs, errs, err := l.cfg.Enclave.CallBatch(name, ins)
	if err == nil {
		return outs, errs
	}
	if errors.Is(err, enclave.ErrEPCExhausted) {
		l.epcFallbacks.Add(1)
	}
	outs = make([][]byte, len(ins))
	errs = make([]error, len(ins))
	for i, in := range ins {
		outs[i], errs[i] = l.cfg.Enclave.Ecall(name, in)
	}
	return outs, errs
}

// runBatch processes one released epoch end to end. vals arrive in the
// shuffler's permuted order; that order is the frame order and slot
// index is entry id.
func (l *Layer) runBatch(vals []any) {
	items := make([]*batchItem, 0, len(vals))
	for _, v := range vals {
		if it, ok := v.(*batchItem); ok {
			items = append(items, it)
		}
	}
	if len(items) == 0 {
		return
	}
	if l.shuffler != nil {
		now := time.Now()
		for _, it := range items {
			l.observeStageDur(StageShuffleWait, now.Sub(it.enq))
			it.wait.End()
		}
	}
	l.batches.Add(1)
	l.batchMsgs.Add(uint64(len(items)))

	// Stage 1: one enclave crossing per message kind for the whole epoch
	// (none under PassThrough, which forwards bodies unchanged).
	outs := make([][]byte, len(items))
	dead := make([]bool, len(items))
	for i, it := range items {
		outs[i] = it.body
	}
	groups := []struct {
		ecall string
		isGet bool
	}{{ecallUAGet, true}, {ecallUAPost, false}}
	if l.cfg.PassThrough {
		groups = nil
	}
	for _, group := range groups {
		var idxs []int
		var ins [][]byte
		for i, it := range items {
			if it.isGet == group.isGet {
				idxs = append(idxs, i)
				ins = append(ins, it.body)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		start := time.Now()
		gouts, gerrs := l.callBatch(group.ecall, ins)
		l.observeStageDur(StageEcallDecrypt, time.Since(start))
		for j, i := range idxs {
			if gerrs[j] != nil {
				items[i].deliver(batchResult{err: gerrs[j]})
				dead[i] = true
				continue
			}
			outs[i] = gouts[j]
		}
	}

	// Assemble the frame in epoch (slot) order; ids are slot indexes.
	entries := make([]message.BatchEntry, 0, len(items))
	owners := make([]*batchItem, 0, len(items))
	for i, it := range items {
		if dead[i] {
			continue
		}
		kind := message.BatchKindPost
		if it.isGet {
			kind = message.BatchKindGet
		}
		entries = append(entries, message.BatchEntry{ID: i, Kind: kind, Body: outs[i]})
		owners = append(owners, it)
	}
	if len(entries) == 0 {
		return
	}

	delivered := make([]bool, len(entries))
	deliver := func(idx int, res batchResult) {
		if delivered[idx] {
			return
		}
		delivered[idx] = true
		owners[idx].deliver(res)
	}

	// send forwards one (sub-)envelope and delivers its results; an
	// error means envelope-level failure with nothing delivered, which
	// is what the ladder retries, splits, and finally degrades.
	send := func(ids []int) error {
		if !l.breaker.Allow() {
			l.failFast.Add(1)
			return resilience.ErrBreakerOpen
		}
		sub := make([]message.BatchEntry, len(ids))
		for j, id := range ids {
			sub[j] = entries[id]
		}
		actx, cancel := l.policy.AttemptContext(context.Background())
		status, respBody, err := l.sendFrame(actx, sub)
		cancel()
		if err != nil {
			l.breaker.Report(false)
			return err
		}
		l.breaker.Report(true)
		if status != http.StatusOK {
			return fmt.Errorf("proxy: batch hop status %d", status)
		}
		results, err := decodeResults(respBody)
		if err != nil {
			return err
		}
		byID := make(map[int]message.BatchEntry, len(results))
		for _, res := range results {
			byID[res.ID] = res
		}
		for _, id := range ids {
			res, ok := byID[entries[id].ID]
			if !ok {
				deliver(id, batchResult{err: fmt.Errorf("proxy: batch response missing an entry")})
				continue
			}
			deliver(id, batchResult{status: res.Status, body: res.Body})
		}
		return nil
	}

	// prep re-randomizes the sub-batch's hop envelopes as a unit before a
	// retry leaves: one link/rewrap crossing for the whole sub-batch, so
	// the retried bytes are unrelated to the failed attempt's. (No
	// shuffler re-entry: the epoch already granted these messages their
	// anonymity set, and the batch itself leaves as one message.)
	prep := func(ids []int) error {
		if l.cfg.PassThrough || len(ids) == 0 || !isLinkWrapped(entries[ids[0]].Body) {
			return nil
		}
		ins := make([][]byte, len(ids))
		for j, id := range ids {
			ins[j] = entries[id].Body
		}
		start := time.Now()
		routs, rerrs := l.callBatch(ecallLinkRewrap, ins)
		l.observeStageDur(StageEcallRewrap, time.Since(start))
		for j, id := range ids {
			if rerrs[j] != nil {
				return rerrs[j]
			}
			entries[id].Body = routs[j]
		}
		return nil
	}

	// single is the ladder's last rung: one message alone in a one-entry
	// envelope under the item's own context and the same retry policy
	// and rewrap prep, so one poison message cannot wedge its epoch.
	single := func(id int) {
		e := entries[id]
		status, respBody, err := l.forwardResilient(owners[id].ctx, e.Body, l.rewrap,
			func(actx context.Context, body []byte) (int, []byte, error) {
				status, resp, err := l.sendFrame(actx, []message.BatchEntry{{ID: e.ID, Kind: e.Kind, Body: body}})
				if err != nil || status != http.StatusOK {
					// An error frame prices the whole exchange; the
					// retry policy judges its status.
					return status, resp, err
				}
				results, err := decodeResults(resp)
				if err != nil {
					return 0, nil, err
				}
				return results[0].Status, results[0].Body, nil
			})
		if err != nil {
			deliver(id, batchResult{err: err})
			return
		}
		deliver(id, batchResult{status: status, body: respBody})
	}

	outcome, err := resilience.RunBatch(context.Background(), l.policy, len(entries), send, prep, single)
	if outcome.Attempts > 1 {
		l.batchRetries.Add(uint64(outcome.Attempts - 1))
	}
	l.batchSplits.Add(uint64(outcome.Splits))
	l.batchDegraded.Add(uint64(outcome.Degraded))
	if err == nil {
		err = errors.New("proxy: batch epoch unresolved")
	}
	for idx := range entries {
		deliver(idx, batchResult{err: err})
	}
}

// sendFrame forwards entries as one batch frame. Each send mints a fresh
// epoch id: the frame transport matches the pooled response to this
// exact exchange by it, and a retry is a new exchange.
func (l *Layer) sendFrame(ctx context.Context, entries []message.BatchEntry) (int, []byte, error) {
	payload, err := message.MarshalBatchEpoch(nil, l.hopEpoch.Add(1), entries)
	if err != nil {
		return 0, nil, err
	}
	return l.forward(ctx, message.BatchPath, payload)
}

// decodeResults parses a response frame, defaulting unset entry
// statuses to 200.
func decodeResults(frame []byte) ([]message.BatchEntry, error) {
	_, results, err := message.DecodeBatchFrame(frame)
	if err != nil {
		return nil, err
	}
	for i := range results {
		if results[i].Status == 0 {
			results[i].Status = http.StatusOK
		}
	}
	return results, nil
}

// rewrap re-randomizes one message's hop envelope before a retried
// one-entry send leaves again (link-key deployments only).
func (l *Layer) rewrap(body []byte) ([]byte, error) {
	if l.cfg.PassThrough || !isLinkWrapped(body) {
		return body, nil
	}
	return l.process(StageEcallRewrap, ecallLinkRewrap, body)
}

// --- IA side: the /batch route ------------------------------------------

// handleBatch demultiplexes one batch frame: batch ECALLs for the
// enclave stages, per-message LRS traffic under the bounded fan-out, and
// one response frame — echoing the request's epoch id — whose entry
// order follows this layer's own shuffle permutation, so inbound epochs
// feed the auditor, tracer, and cache.
func (l *Layer) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r.Body, maxBatchBody)
	if err != nil {
		if errors.Is(err, ErrBodyTooLarge) {
			l.fail(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		l.fail(w, http.StatusBadRequest, "read request")
		return
	}
	epoch, entries, err := message.DecodeBatchFrame(body)
	if err != nil {
		l.fail(w, http.StatusBadRequest, "bad batch envelope")
		return
	}

	results := l.processBatch(r.Context(), entries)

	perm, err := l.shuffler.ReleaseBatch(len(results))
	if err != nil {
		l.fail(w, statusFor(err), failText(err))
		return
	}
	out := make([]message.BatchEntry, len(results))
	for i, p := range perm {
		out[i] = results[p]
	}
	payload, err := message.MarshalBatchEpoch(nil, epoch, out)
	if err != nil {
		l.fail(w, http.StatusInternalServerError, "marshal batch")
		return
	}
	for _, res := range results {
		if res.Status >= 200 && res.Status < 300 {
			l.served.Add(1)
		} else {
			l.failed.Add(1)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

// errEntry prices a failed entry with the same status mapping and
// constant text a UA answers its client with.
func errEntry(id int, err error) message.BatchEntry {
	return message.BatchEntry{ID: id, Status: statusFor(err), Body: []byte(failText(err))}
}

// processBatch resolves every entry of an inbound envelope, in request
// order (the caller permutes afterwards).
func (l *Layer) processBatch(ctx context.Context, entries []message.BatchEntry) []message.BatchEntry {
	l.batches.Add(1)
	l.batchMsgs.Add(uint64(len(entries)))
	results := make([]message.BatchEntry, len(entries))
	var posts, gets []int
	for i, e := range entries {
		switch e.Kind {
		case message.BatchKindPost:
			posts = append(posts, i)
		case message.BatchKindGet:
			gets = append(gets, i)
		default:
			results[i] = message.BatchEntry{ID: e.ID, Status: http.StatusBadRequest, Body: []byte("unknown kind")}
		}
	}
	if l.cfg.PassThrough {
		l.passBatch(ctx, entries, append(posts, gets...), results)
		return results
	}
	l.processBatchPosts(ctx, entries, posts, results)
	l.processBatchGets(ctx, entries, gets, results)
	return results
}

// passBatch is processBatch under PassThrough (m1): no enclave
// crossings — every entry goes to the LRS unchanged and its answer comes
// back as is.
func (l *Layer) passBatch(ctx context.Context, entries []message.BatchEntry, idxs []int, results []message.BatchEntry) {
	l.fanOut(len(idxs), func(k int) {
		e := entries[idxs[k]]
		path, _ := message.BatchKindPath(e.Kind)
		status, body, err := l.forwardLRS(ctx, path, e.Body)
		if err != nil {
			results[idxs[k]] = errEntry(e.ID, err)
			return
		}
		results[idxs[k]] = message.BatchEntry{ID: e.ID, Status: status, Body: body}
	})
}

// fanOut runs fn(k) for k in [0, n) on at most the LRS semaphore's
// capacity of workers — the bounded replacement for one goroutine per
// message. fn still acquires the semaphore per request, sharing the
// budget with every other epoch.
func (l *Layer) fanOut(n int, fn func(k int)) {
	workers := l.lrsSem.Cap()
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		ch <- k
	}
	close(ch)
	wg.Wait()
}

// processBatchPosts: one ia/post crossing for the sub-batch, then
// per-message LRS inserts under the bounded fan-out.
func (l *Layer) processBatchPosts(ctx context.Context, entries []message.BatchEntry, idxs []int, results []message.BatchEntry) {
	if len(idxs) == 0 {
		return
	}
	ins := make([][]byte, len(idxs))
	for j, idx := range idxs {
		ins[j] = entries[idx].Body
	}
	start := time.Now()
	outs, errs := l.callBatch(ecallIAPost, ins)
	l.observeStageDur(StageEcallDecrypt, time.Since(start))

	var live []int
	for j, idx := range idxs {
		if errs[j] != nil {
			results[idx] = errEntry(entries[idx].ID, errs[j])
			continue
		}
		live = append(live, j)
	}
	l.fanOut(len(live), func(k int) {
		j := live[k]
		idx := idxs[j]
		status, respBody, err := l.forwardLRS(ctx, message.EventsPath, outs[j])
		if err != nil {
			results[idx] = errEntry(entries[idx].ID, err)
			return
		}
		results[idx] = message.BatchEntry{ID: entries[idx].ID, Status: status, Body: respBody}
	})
}

// batchGetState tracks one get entry between the two enclave crossings.
type batchGetState struct {
	idx    int    // position in entries/results
	handle string // parked temporary-key handle
	key    string // coalescing key (cache mode)
	body   []byte // LRS request, then LRS response
	fill   bool   // coalescing leader fills the cache
	done   bool   // terminally resolved before the response crossing
}

// processBatchGets: one ia/get crossing parks every temporary key and
// emits the LRS requests (or cache hits), the misses fetch under the
// bounded fan-out with coalescing, and one ia/get-response crossing seals
// every successful response. Handles are dropped on every early exit so
// a failed entry cannot leak its parked key in the EPC.
func (l *Layer) processBatchGets(ctx context.Context, entries []message.BatchEntry, idxs []int, results []message.BatchEntry) {
	if len(idxs) == 0 {
		return
	}
	cache := l.cfg.RecCache

	handles := make([]string, len(idxs))
	ins := make([][]byte, len(idxs))
	for j, idx := range idxs {
		handles[j] = strconv.FormatUint(l.nextHandle.Add(1), 36)
		framed, err := message.Marshal(iaGetCall{Handle: handles[j], Body: entries[idx].Body})
		if err != nil {
			results[idx] = errEntry(entries[idx].ID, err)
			continue
		}
		ins[j] = framed
	}
	start := time.Now()
	outs, errs := l.callBatch(ecallIAGet, ins)
	l.observeStageDur(StageEcallDecrypt, time.Since(start))

	states := make([]*batchGetState, 0, len(idxs))
	for j, idx := range idxs {
		if ins[j] == nil {
			continue // marshal failure already priced
		}
		if errs[j] != nil {
			results[idx] = errEntry(entries[idx].ID, errs[j])
			l.dropHandle(handles[j])
			continue
		}
		st := &batchGetState{idx: idx, handle: handles[j]}
		if cache == nil {
			st.body = outs[j]
		} else {
			var res iaGetResult
			if err := message.Unmarshal(outs[j], &res); err != nil {
				results[idx] = errEntry(entries[idx].ID, fmt.Errorf("%w: %v", errEnclave, err))
				l.dropHandle(handles[j])
				continue
			}
			if res.Hit {
				// Sealed inside the crossing; no LRS hop, no parked key.
				results[idx] = message.BatchEntry{ID: entries[idx].ID, Status: http.StatusOK, Body: res.Body}
				continue
			}
			st.key = res.Key
			st.body = res.Body
		}
		states = append(states, st)
	}

	// LRS round trips: bounded fan-out, coalesced per pseudonym when the
	// cache is on (duplicate keys inside one epoch share a single fetch).
	l.fanOut(len(states), func(k int) {
		st := states[k]
		status, lrsBody, shared, err := l.batchGetFetch(ctx, st)
		if err != nil {
			results[st.idx] = errEntry(entries[st.idx].ID, err)
			l.dropHandle(st.handle)
			st.done = true
			return
		}
		if status != http.StatusOK {
			results[st.idx] = message.BatchEntry{ID: entries[st.idx].ID, Status: status, Body: lrsBody}
			l.dropHandle(st.handle)
			st.done = true
			return
		}
		st.body = lrsBody
		st.fill = cache != nil && !shared
	})

	var pending []*batchGetState
	var respIns [][]byte
	for _, st := range states {
		if st.done {
			continue
		}
		framed, err := message.Marshal(iaGetCall{Handle: st.handle, Body: st.body, Fill: st.fill})
		if err != nil {
			results[st.idx] = errEntry(entries[st.idx].ID, err)
			l.dropHandle(st.handle)
			continue
		}
		pending = append(pending, st)
		respIns = append(respIns, framed)
	}
	if len(pending) == 0 {
		return
	}
	start = time.Now()
	respOuts, respErrs := l.callBatch(ecallIAGetResp, respIns)
	l.observeStageDur(StageEcallReencrypt, time.Since(start))
	for k, st := range pending {
		if respErrs[k] != nil {
			// The re-encrypt crossing consumes the parked key only on
			// success; clear it or the failed entry leaks EPC.
			results[st.idx] = errEntry(entries[st.idx].ID, respErrs[k])
			l.dropHandle(st.handle)
			continue
		}
		results[st.idx] = message.BatchEntry{ID: entries[st.idx].ID, Status: http.StatusOK, Body: respOuts[k]}
	}
}

// batchGetFetch runs one get's LRS round trip, coalescing concurrent
// misses for the same pseudonym through the cache's single-flight door
// (a follower whose leader failed gets one fetch of its own).
func (l *Layer) batchGetFetch(ctx context.Context, st *batchGetState) (status int, body []byte, shared bool, err error) {
	if st.key == "" {
		status, body, err = l.forwardLRS(ctx, message.QueriesPath, st.body)
		return status, body, false, err
	}
	v, shared, err := l.cfg.RecCache.Do(ctx, st.key, func() (any, error) {
		status, lrsBody, err := l.forwardLRS(ctx, message.QueriesPath, st.body)
		if err != nil {
			return nil, err
		}
		return fetchResult{status, lrsBody}, nil
	})
	if err != nil && shared && ctx.Err() == nil {
		// The leader failed under its own deadline and breaker draw;
		// this follower is still alive, so give it one fetch of its own.
		var s int
		var b []byte
		if s, b, err = l.forwardLRS(ctx, message.QueriesPath, st.body); err == nil {
			v = fetchResult{s, b}
		}
	}
	if err != nil {
		return 0, nil, shared, err
	}
	fr := v.(fetchResult)
	return fr.status, fr.body, shared, nil
}
