package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	pmetrics "pprox/internal/metrics"
	"pprox/internal/reccache"
)

// counters is everything read at one edge of a measured window.
type counters struct {
	scrape pmetrics.ScrapeSet // the deployment's /metrics, scraped from ua-0
	cpu    time.Duration      // process user+sys CPU (getrusage)
	allocs uint64             // heap objects allocated
	gcCPU  float64            // GC CPU seconds
	allCPU float64            // all Go CPU seconds

	uaEcalls, uaMsgs uint64 // UA enclave crossings and messages carried
	cache            reccache.Stats
	queries          uint64 // LRS queries served
	dups, walErrs    uint64
	applied          uint64
	applySec         float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (n *node) read() (counters, error) {
	var c counters
	resp, err := n.scrape.Get("http://ua-0/metrics")
	if err != nil {
		return c, fmt.Errorf("scrape: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("scrape: %w", err)
	}
	c.scrape = pmetrics.ParseExposition(string(body))

	enc := n.d.UALayers[0].Enclave()
	c.uaEcalls, c.uaMsgs = enc.EcallCount(), enc.MessageCount()
	c.cache = n.d.RecCaches[0].LiveStats()
	eng := n.d.Engine
	_, c.queries, _ = eng.Stats()
	c.dups, c.walErrs = eng.DupEvents(), eng.WALErrors()
	c.applied, c.applySec = eng.EventsApplied(), eng.ApplySeconds()

	samples := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(samples)
	c.allocs = samples[0].Value.Uint64()
	c.gcCPU, c.allCPU = samples[1].Value.Float64(), samples[2].Value.Float64()
	c.cpu = processCPU()
	return c, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta sums after−before over the series of family name whose labels
// include every pair in want.
func delta(before, after pmetrics.ScrapeSet, name string, want ...string) float64 {
	total := 0.0
	for series, v := range after {
		fam, labels := pmetrics.ParseSeries(series)
		if fam != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(want); i += 2 {
			if labels[want[i]] != want[i+1] {
				match = false
				break
			}
		}
		if match {
			total += v - before[series]
		}
	}
	return total
}

// stageMeanMs is a proxy stage's mean in ms over the window, from the
// scraped _sum/_count deltas.
func stageMeanMs(before, after pmetrics.ScrapeSet, layer, stage string) (mean float64, n int) {
	sum := delta(before, after, "pprox_proxy_stage_seconds_sum", "layer", layer, "stage", stage)
	cnt := delta(before, after, "pprox_proxy_stage_seconds_count", "layer", layer, "stage", stage)
	if cnt == 0 {
		return 0, 0
	}
	return 1000 * sum / cnt, int(cnt)
}

// stageSumMs is a proxy stage's total time in ms over the window.
func stageSumMs(before, after pmetrics.ScrapeSet, layer, stage string) float64 {
	return 1000 * delta(before, after, "pprox_proxy_stage_seconds_sum", "layer", layer, "stage", stage)
}

// heapSampler tracks the peak Go heap in use while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// dist is a sample of timings in ms, sorted.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// q is the q-quantile, interpolated between order statistics of the
// sample itself (never a histogram bucket edge).
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	pos := q * float64(len(d)-1)
	i := int(pos)
	if i+1 >= len(d) {
		return d[len(d)-1]
	}
	return d[i] + (pos-float64(i))*(d[i+1]-d[i])
}

// tailQ is the reported tail quantile: 0.99, or the highest quantile
// with at least ten samples beyond it when the sample is smaller.
func (d dist) tailQ() float64 {
	n := float64(len(d))
	switch {
	case n >= 1000:
		return 0.99
	case n > 20:
		return 1 - 10/n
	default:
		return 0.5
	}
}

func (d dist) tail() float64 { return d.q(d.tailQ()) }

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

func (d dist) describe() string {
	return fmt.Sprintf("n=%d p50=%.2f p%s=%.2f max=%.2f", len(d), d.q(0.5), pctLabel(d.tailQ()), d.tail(), d.q(1))
}

func pctLabel(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", 100*q), "0"), ".")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostFacts describes the machine and source a report was measured on.
func hostFacts() string {
	return fmt.Sprintf("git=%s source_sha256=%s go=%s nproc=%d GOMAXPROCS=%d cpu=%q",
		gitSHA(), sourceDigest(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
}

// gitSHA is read at run time, since `go build` in a checkout without
// history stamps none. Only a repository rooted here counts: git would
// otherwise report an enclosing repository's commit.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file of the module, so a
// report identifies the code it measured even outside a git checkout.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
