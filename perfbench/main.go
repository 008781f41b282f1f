// Command perfbench is the repository's benchmark. One run deploys the
// in-process PProx cluster in its shipped configuration, drives one
// workload open-loop from one process, checks every answer, and prints
// the end-to-end metrics by name and unit — or, with --trace 1, the
// per-layer metrics of a traced phase. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload get_uniform --seed 1 --seconds 12 --trace 0
//	perfbench --steady 10 --seconds 12 [--workload post_mix]
//
// Build and run it through run.sh from the repository root; see README.md
// for the workloads, the metrics and what each one should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload: get_uniform, get_zipf or post_mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced phase instead of the end-to-end ones")
	steady := flag.Int("steady", 0, "steadiness mode: run each workload this many times with seeds 1..N and report each metric's spread against its bound")
	workdir := flag.String("workdir", ".bench_build", "directory for WAL files, spans and the steadiness log")
	flag.Parse()

	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *steady == 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1, --trace 0 or 1, --steady 0 or ≥ 2, and no positional arguments")
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *steady > 0 {
		ok, err := runSteady(*steady, *workloadName, *seconds, *workdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	m, ok := mixByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	rep, err := runBench(m, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

// runBench runs one workload on three deployments, each timed from deploy
// through preload and warm-up. The first drives the untraced timed phase
// at the nominal rate and is checked; the second searches max_rate_rps;
// the third drives the traced phase when trace is on.
func runBench(m mix, seed int64, dur time.Duration, traced bool, dir string) (*report, error) {
	rep := &report{correct: true}
	rep.line("perfbench workload=%s seed=%d seconds=%.0f trace=%v nominal=%.0f req/s S=%d in-flight cap=%d",
		m.name, seed, dur.Seconds(), traced, m.nominal, shuffleS, inflightCap)
	rep.line("host: %s", hostFacts())
	b := newBench(m, seed, dir)
	var setupS []float64

	// Deployment 1: the timed phase at nominal, then the checks.
	n1, err := b.setup(false)
	if err != nil {
		return nil, fmt.Errorf("set-up 1: %w", err)
	}
	setupS = append(setupS, n1.setup.Seconds())
	base, err := n1.measurePhase(m.nominal, dur)
	if err == nil {
		b.check(rep, n1, base.merged())
	}
	var decryptUS float64
	if err == nil && traced {
		decryptUS, err = timeDecrypt(n1)
	}
	n1.close()
	if err != nil {
		return nil, err
	}

	// Deployment 2: the max-rate search.
	n2, err := b.setup(false)
	if err != nil {
		return nil, fmt.Errorf("set-up 2: %w", err)
	}
	setupS = append(setupS, n2.setup.Seconds())
	maxRate, probes := n2.searchMaxRate()
	n2.close()
	rep.line("max-rate probes (req/s: verdict [parts]):")
	for _, p := range probes {
		rep.line("  %s", p)
	}

	// Deployment 3: set up for setup_s; in traced runs it drives the
	// traced phase on the same input streams as the timed phase.
	n3, err := b.setup(traced)
	if err != nil {
		return nil, fmt.Errorf("set-up 3: %w", err)
	}
	setupS = append(setupS, n3.setup.Seconds())
	var tracedPhase phase
	if traced {
		if tracedPhase, err = n3.measurePhase(m.nominal, dur); err == nil {
			b.check(rep, n3, tracedPhase.merged())
		}
	}
	n3.close()
	if err != nil {
		return nil, err
	}

	rep.line("set-up times (s): %.3f", setupS)
	base.describe(rep, dur)
	if !traced {
		merged := base.merged()
		rep.attempted, rep.failed = len(merged.res.timed), merged.timedFailed()
		endToEnd(rep, base, maxRate, setupS)
		return rep, nil
	}
	merged := tracedPhase.merged()
	rep.attempted, rep.failed = len(merged.res.timed), merged.timedFailed()
	perLayer(rep, base, tracedPhase, maxRate, decryptUS)
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", m.name, seed))
	if err := writeSpans(path, merged.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.line("spans written to %s", path)
	return rep, nil
}
