package proxy

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pprox/internal/transport"
)

// waiter is a blocked request as the tests model it: enqueued into an
// epoch, resolved with its position in the permuted release order.
type waiter struct{ pos chan int }

// newWaitShuffler builds a shuffler whose sink resolves every released
// waiter with its release position.
func newWaitShuffler(size int, timeout time.Duration, table int) *Shuffler {
	return withWaitSink(NewShuffler(size, timeout, table))
}

func withWaitSink(sh *Shuffler) *Shuffler {
	sh.SetBatchSink(func(vals []any) {
		for pos, v := range vals {
			v.(*waiter).pos <- pos
		}
	})
	return sh
}

// wait enqueues one waiter and blocks until its epoch is released,
// returning its release position, or the caller's context error.
func wait(ctx context.Context, sh *Shuffler) (int, error) {
	w := &waiter{pos: make(chan int, 1)}
	if err := sh.Enqueue(w); err != nil {
		return 0, err
	}
	select {
	case pos := <-w.pos:
		return pos, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Shuffling off means no shuffler: a disabled one refuses to buffer
// anything, and the layer sends each request as its own one-message
// epoch right away.
func TestShufflerDisabledIsImmediate(t *testing.T) {
	for _, s := range []*Shuffler{nil, NewShuffler(0, 0, 0), NewShuffler(1, 0, 0)} {
		if err := s.Enqueue(1); err == nil {
			t.Error("a disabled shuffler buffered a message")
		}
	}
	l, err := New(Config{Role: RoleUA, PassThrough: true, Next: "http://ia", HopDialer: transport.NewNetwork(), ShuffleSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Shuffler() != nil {
		t.Fatal("S = 1 built a shuffler")
	}
	start := time.Now()
	// Nobody listens at the next hop: the one-message epoch fails at
	// once instead of waiting for a flush.
	if _, _, err := l.handleUA(context.Background(), []byte("{}"), true); err == nil {
		t.Fatal("forward to an absent next hop succeeded")
	}
	if time.Since(start) > time.Second {
		t.Error("disabled shuffler delayed the message")
	}
}

// runBatch enqueues n messages and returns each message's release
// position, indexed by arrival index.
func runBatch(t *testing.T, sh *Shuffler, n int) []int {
	t.Helper()
	positions := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Arrivals strictly ordered: wait for this message to be
		// buffered (pending reaches want) — or for the batch to flush,
		// when this message was the one that completed it — before
		// enqueueing the next. Checking the flush counter rather than
		// Pending()==0 matters: pending is also 0 *before* the message
		// arrives, and exiting early there would let two goroutines
		// race into the epoch in arbitrary slot order.
		want := sh.Pending() + 1
		flushed, _ := sh.Stats()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pos, err := wait(context.Background(), sh)
			if err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			positions[i] = pos
		}(i)
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if sh.Pending() == want {
				break
			}
			if f, _ := sh.Stats(); f != flushed {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	wg.Wait()
	return positions
}

func TestShufflerReleasesFullBatchWithPermutation(t *testing.T) {
	const s = 8
	sh := newWaitShuffler(s, time.Minute, 0)
	positions := runBatch(t, sh, s)

	// The positions must be a permutation of 0..s-1.
	sorted := append([]int(nil), positions...)
	sort.Ints(sorted)
	for i, p := range sorted {
		if p != i {
			t.Fatalf("positions %v are not a permutation", positions)
		}
	}
	flushes, sheds := sh.Stats()
	if flushes != 1 || sheds != 0 {
		t.Errorf("stats = %d flushes, %d sheds", flushes, sheds)
	}
}

func TestShufflerRandomizesOrder(t *testing.T) {
	// Across several batches, at least one must release in a
	// non-identity order (P[all identity] = (1/8!)^4 ≈ 0).
	const s = 8
	identityAlways := true
	for trial := 0; trial < 4 && identityAlways; trial++ {
		sh := newWaitShuffler(s, time.Minute, 0)
		positions := runBatch(t, sh, s)
		for i, p := range positions {
			if p != i {
				identityAlways = false
				break
			}
		}
	}
	if identityAlways {
		t.Error("every batch released in arrival order; shuffling is not randomizing")
	}
}

func TestShufflerTimerFlushesPartialBatch(t *testing.T) {
	sh := newWaitShuffler(10, 30*time.Millisecond, 0)
	start := time.Now()
	if _, err := wait(context.Background(), sh); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Errorf("released after %v, before the timer", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("released after %v, long after the timer", elapsed)
	}
}

func TestShufflerBlocksUntilBatchCompletes(t *testing.T) {
	sh := newWaitShuffler(2, time.Minute, 0)
	first := make(chan error, 1)
	go func() {
		_, err := wait(context.Background(), sh)
		first <- err
	}()
	select {
	case err := <-first:
		t.Fatalf("first message released alone (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Second message completes the batch; both release.
	if _, err := wait(context.Background(), sh); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("first Wait: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("first message never released")
	}
}

func TestShufflerTableFullSheds(t *testing.T) {
	// §5: the table T must be sized larger than S, otherwise requests
	// drop. Misconfigure it deliberately (table 100 < size 200): the
	// flush threshold is never reached, the table saturates at 100, and
	// further arrivals shed with ErrTableFull.
	sh3 := newWaitShuffler(200, time.Minute, 100)
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed, released := 0, 0
	for i := 0; i < 150; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := wait(context.Background(), sh3)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				released++
			case errors.Is(err, ErrTableFull):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// Wait until the table is saturated, then release everyone.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := shed
		mu.Unlock()
		if done == 50 && sh3.Pending() == 100 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sh3.Close()
	wg.Wait()
	if shed != 50 || released != 100 {
		t.Errorf("shed=%d released=%d, want 50/100", shed, released)
	}
	if _, sheds := sh3.Stats(); sheds != 50 {
		t.Errorf("Stats sheds = %d", sheds)
	}
}

func TestShufflerContextCancellation(t *testing.T) {
	sh := newWaitShuffler(10, time.Minute, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := wait(ctx, sh)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The abandoned slot still counts toward the next flush.
	if sh.Pending() != 1 {
		t.Errorf("pending = %d, want 1", sh.Pending())
	}
}

func TestShufflerCloseReleasesPending(t *testing.T) {
	sh := newWaitShuffler(10, time.Minute, 0)
	done := make(chan error, 1)
	go func() {
		_, err := wait(context.Background(), sh)
		done <- err
	}()
	for i := 0; i < 1000 && sh.Pending() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	sh.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait after Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release pending message")
	}
	// Closing an idle or nil shuffler is a no-op.
	sh.Close()
	var nilSh *Shuffler
	nilSh.Close()
}

func TestShufflerSizeAccessor(t *testing.T) {
	if got := newWaitShuffler(7, 0, 0).Size(); got != 7 {
		t.Errorf("Size = %d", got)
	}
}

// TestShufflerSeedUnpredictable is the regression test for the predictable
// permutation bug: the shuffler used to seed math/rand with the boot
// timestamp, letting an adversary who recovers the start time replay every
// permutation. Two production shufflers must draw from independent streams,
// while the test-only seeded constructor must be reproducible.
func TestShufflerSeedUnpredictable(t *testing.T) {
	const s = 8
	seq := func(sh *Shuffler) []int {
		var out []int
		for b := 0; b < 4; b++ {
			out = append(out, runBatch(t, sh, s)...)
		}
		return out
	}
	equal := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	var seed [32]byte
	seed[0] = 42
	if !equal(seq(withWaitSink(NewShufflerSeeded(s, time.Minute, 0, seed))),
		seq(withWaitSink(NewShufflerSeeded(s, time.Minute, 0, seed)))) {
		t.Error("seeded shuffler is not deterministic for a fixed seed")
	}

	// Back-to-back production shufflers: under correct crypto seeding the
	// streams collide with probability (1/8!)⁴ ≈ 0; under the old
	// time-based seeding, shufflers born in the same clock tick shared
	// the stream.
	if equal(seq(newWaitShuffler(s, time.Minute, 0)), seq(newWaitShuffler(s, time.Minute, 0))) {
		t.Error("two production shufflers produced identical permutation streams")
	}
}

// TestShufflerDepartedCallersAdvanceFlush covers the cancellation path: a
// caller that gives up leaves its slot in the buffer, so later arrivals
// still reach the flush threshold instead of waiting for the timer.
func TestShufflerDepartedCallersAdvanceFlush(t *testing.T) {
	sh := newWaitShuffler(3, time.Minute, 0)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := wait(ctx, sh); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait with departed caller: err = %v", err)
		}
	}
	if sh.Pending() != 2 {
		t.Fatalf("pending = %d after two departures, want 2", sh.Pending())
	}
	// A third, live caller completes the batch: it must release right
	// away (the timer is a minute out), at a position drawn over the full
	// 3-slot batch including the departed slots.
	start := time.Now()
	pos, err := wait(context.Background(), sh)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("live caller released after %v; departed slots did not advance the flush", elapsed)
	}
	if pos < 0 || pos >= 3 {
		t.Errorf("release position %d outside the 3-message batch", pos)
	}
	if flushes, _ := sh.Stats(); flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
}

// TestShufflerCloseTerminal: Close flushes the pending partial batch so
// in-flight waiters release, and is TERMINAL — later admissions fail
// fast with ErrShufflerClosed instead of parking in a batch that will
// never flush (the pre-terminal behavior silently re-armed the timer and
// kept "serving" during shutdown, racing the HTTP server teardown).
func TestShufflerCloseTerminal(t *testing.T) {
	sh := newWaitShuffler(10, 30*time.Millisecond, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := wait(context.Background(), sh); err != nil {
			t.Errorf("Wait before Close: %v", err)
		}
	}()
	for i := 0; i < 1000 && sh.Pending() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	sh.Close()
	<-done

	if _, err := wait(context.Background(), sh); !errors.Is(err, ErrShufflerClosed) {
		t.Fatalf("Wait after Close: err = %v, want ErrShufflerClosed", err)
	}
	if err := sh.Enqueue("late"); !errors.Is(err, ErrShufflerClosed) {
		t.Fatalf("Enqueue after Close: err = %v, want ErrShufflerClosed", err)
	}
	if _, err := sh.ReleaseBatch(3); !errors.Is(err, ErrShufflerClosed) {
		t.Fatalf("ReleaseBatch after Close: err = %v, want ErrShufflerClosed", err)
	}
	sh.Close() // idempotent
}

// TestShufflerCloseRace hammers Close against concurrent admissions:
// every waiter must resolve (batch release, flush-on-close, or
// ErrShufflerClosed) — none may hang, and none may park after the close.
func TestShufflerCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		sh := newWaitShuffler(4, time.Hour, 0)
		const waiters = 32
		errs := make(chan error, waiters)
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_, err := wait(ctx, sh)
				errs <- err
			}()
		}
		runtime.Gosched()
		sh.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			switch {
			case err == nil, errors.Is(err, ErrShufflerClosed), errors.Is(err, ErrTableFull):
			case errors.Is(err, context.DeadlineExceeded):
				t.Fatalf("round %d: a waiter hung across Close", round)
			default:
				t.Fatalf("round %d: unexpected waiter error: %v", round, err)
			}
		}
	}
}

// TestShufflerPermutationUniformity is a statistical check on the privacy
// mechanism itself (§6.2 assumes uniformly random release order): over
// many batches, arrival position i must land on release position j with
// frequency ≈ 1/S for every (i, j). A chi-square statistic over the S×S
// contingency table guards against a biased (e.g. off-by-one or
// swap-only) shuffle.
func TestShufflerPermutationUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const s = 6
	const batches = 600
	counts := make([][]int, s)
	for i := range counts {
		counts[i] = make([]int, s)
	}
	for b := 0; b < batches; b++ {
		sh := newWaitShuffler(s, time.Minute, 0)
		positions := runBatch(t, sh, s)
		for arrival, release := range positions {
			counts[arrival][release]++
		}
	}
	expected := float64(batches) / float64(s)
	chi2 := 0.0
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			d := float64(counts[i][j]) - expected
			chi2 += d * d / expected
		}
	}
	// Degrees of freedom (s-1)^2 = 25; the 99.9th percentile of chi2(25)
	// is ≈ 52.6. Using a generous 75 keeps the false-failure rate
	// negligible while still catching any structural bias.
	if chi2 > 75 {
		t.Errorf("shuffle permutation bias: chi² = %.1f over %d batches (counts %v)", chi2, batches, counts)
	}
}

// TestShufflerBatchSink: in batch-release mode a threshold flush hands
// the WHOLE epoch to the sink in one call, in the epoch's permuted order
// — a permutation of the enqueued values, not necessarily their arrival
// order.
func TestShufflerBatchSink(t *testing.T) {
	const s = 16
	var seed [32]byte
	seed[0] = 7
	sh := NewShufflerSeeded(s, time.Hour, 0, seed)
	var epochs [][]any
	sh.SetBatchSink(func(vals []any) {
		batch := make([]any, len(vals))
		copy(batch, vals)
		epochs = append(epochs, batch)
	})
	var flushHook int
	sh.SetHooks(nil, func(batch int) { flushHook = batch })

	for i := 0; i < s; i++ {
		if err := sh.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	if len(epochs) != 1 {
		t.Fatalf("sink calls = %d, want 1 (one whole epoch)", len(epochs))
	}
	got := epochs[0]
	if len(got) != s {
		t.Fatalf("epoch size = %d, want %d", len(got), s)
	}
	seen := make(map[int]bool, s)
	identity := true
	for pos, v := range got {
		i := v.(int)
		if seen[i] {
			t.Fatalf("value %d released twice", i)
		}
		seen[i] = true
		if i != pos {
			identity = false
		}
	}
	if identity {
		t.Error("epoch released in arrival order: the sink must see the permutation")
	}
	if flushHook != s {
		t.Errorf("onFlush batch = %d, want %d", flushHook, s)
	}
	if flushes, _ := sh.Stats(); flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
}

// TestShufflerBatchTimerFlush: a partial epoch flushes to the sink on the
// timer, so batch mode cannot strand a quiet period's messages.
func TestShufflerBatchTimerFlush(t *testing.T) {
	sh := NewShuffler(64, 20*time.Millisecond, 0)
	got := make(chan int, 1)
	sh.SetBatchSink(func(vals []any) { got <- len(vals) })
	for i := 0; i < 3; i++ {
		if err := sh.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	select {
	case n := <-got:
		if n != 3 {
			t.Errorf("timer epoch size = %d, want 3", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never flushed the partial epoch to the sink")
	}
}

// TestShufflerReleaseBatch: an inbound batch epoch is accounted as one
// flush with a fresh permutation; empty and shuffling-off cases are
// identity without flush accounting.
func TestShufflerReleaseBatch(t *testing.T) {
	sh := NewShuffler(8, time.Hour, 0)
	var hookBatch int
	sh.SetHooks(nil, func(batch int) { hookBatch = batch })
	perm, err := sh.ReleaseBatch(6)
	if err != nil {
		t.Fatalf("ReleaseBatch: %v", err)
	}
	if len(perm) != 6 {
		t.Fatalf("perm length = %d, want 6", len(perm))
	}
	seen := make([]bool, 6)
	for _, p := range perm {
		if p < 0 || p >= 6 || seen[p] {
			t.Fatalf("perm = %v is not a permutation of 0..5", perm)
		}
		seen[p] = true
	}
	if flushes, _ := sh.Stats(); flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
	if hookBatch != 6 {
		t.Errorf("onFlush batch = %d, want 6", hookBatch)
	}

	if perm, err := sh.ReleaseBatch(0); err != nil || len(perm) != 0 {
		t.Errorf("ReleaseBatch(0) = %v, %v; want empty identity", perm, err)
	}
	if flushes, _ := sh.Stats(); flushes != 1 {
		t.Error("an empty envelope must not count as a shuffle epoch")
	}

	var nilSh *Shuffler
	perm, err = nilSh.ReleaseBatch(3)
	if err != nil || len(perm) != 3 || perm[0] != 0 || perm[1] != 1 || perm[2] != 2 {
		t.Errorf("nil shuffler ReleaseBatch = %v, %v; want identity", perm, err)
	}
}

// Regression: ReleaseBatch built an identity permutation up front on
// every call and then discarded it on the hot path, where rng.Perm
// allocates the real one — a throwaway slice per batched epoch. The hot
// path must allocate exactly the permutation it returns.
func TestReleaseBatchHotPathAllocsOnce(t *testing.T) {
	s := NewShuffler(8, time.Minute, 0)
	defer s.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.ReleaseBatch(32); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ReleaseBatch(32) allocates %.0f objects/op, want 1 (rng.Perm only)", allocs)
	}

	// The degenerate branch still returns the identity permutation.
	var nilShuffler *Shuffler
	perm, err := nilShuffler.ReleaseBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if p != i {
			t.Fatalf("nil shuffler perm = %v, want identity", perm)
		}
	}
}
