package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// inflightCap bounds the requests in flight to 4·S in-memory connections.
// It must exceed S, because the shuffler releases an epoch only once S
// requests wait in it; it exceeds nproc on purpose, because the
// connections are in-memory pipes served by goroutines, not sockets or
// threads.
const inflightCap = 4 * shuffleS

// outcome is one timed request.
type outcome struct {
	get  bool
	due  time.Duration // due time, from the start of the drive
	lat  time.Duration // completion minus due time
	late time.Duration // send minus due time
	err  error
}

// driveResult is one open-loop drive.
type driveResult struct {
	// timed holds the requests due inside the window, in due order.
	timed []outcome
	// issued, gets and posts count every request sent, timed or not.
	issued, gets, posts int
	// acked counts posts acknowledged, timed or not.
	acked int
	// failed counts every failed request, timed or not.
	failed int
	// aborted reports that the generator fell more than abortLate
	// behind and closed the window early.
	aborted bool
}

// drive offers src's requests open-loop at rate req/s for window: one
// goroutine issues each request at its Poisson due time, whether or not
// earlier ones have answered, and every request is timed from its due
// time, so a stall is charged to every request it delays. Arrivals
// continue past the window until every timed request has answered and
// the requests sent form whole shuffle epochs, so the window's last epoch
// fills like any other and no epoch waits out the shuffle timer.
//
// abortLate > 0 closes the window early once the generator runs that far
// behind schedule (an overloaded max-rate probe); the epoch is still
// completed.
func drive(ctx context.Context, call func(context.Context, request) error, src *source, rate float64, window, abortLate time.Duration) driveResult {
	sem := make(chan struct{}, inflightCap)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex // guards res
		res       driveResult
		timedLeft atomic.Int64
	)
	res.timed = make([]outcome, 0, int(rate*window.Seconds()*1.1)+inflightCap)
	start := time.Now()
	end := window
	var offset time.Duration
	for issued := 0; ; issued++ {
		offset += src.gap(rate)
		timed := offset < end
		if !timed && timedLeft.Load() == 0 && issued%shuffleS == 0 {
			break
		}
		due := start.Add(offset)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late := time.Since(due)
		if timed && abortLate > 0 && late > abortLate {
			end, timed = offset, false
			mu.Lock()
			res.aborted = true
			mu.Unlock()
		}
		r := src.next()
		idx := -1
		mu.Lock()
		if timed {
			idx = len(res.timed)
			res.timed = append(res.timed, outcome{get: r.get, due: offset, late: late})
			timedLeft.Add(1)
		}
		res.issued++
		if r.get {
			res.gets++
		} else {
			res.posts++
		}
		mu.Unlock()

		wg.Add(1)
		go func() {
			defer wg.Done()
			err := call(ctx, r)
			lat := time.Since(due)
			<-sem
			mu.Lock()
			if idx >= 0 {
				res.timed[idx].lat, res.timed[idx].err = lat, err
			}
			if err != nil {
				res.failed++
			} else if !r.get {
				res.acked++
			}
			mu.Unlock()
			if idx >= 0 {
				timedLeft.Add(-1)
			}
		}()
	}
	wg.Wait()
	return res
}
