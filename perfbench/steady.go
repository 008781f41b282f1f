package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady is the steadiness mode: it runs the benchmark n times per
// workload, each run a fresh process with seeds 1..n, and reports for
// each end-to-end metric the median, the quartiles and the spread (the
// distance between the quartiles as a share of the median) against the
// metric's bound in BENCHMARK.json; each run's report is kept under
// workdir. It returns false when a spread other than setup_s's exceeds its
// bound or a run fails.
func runSteady(n int, only string, seconds int, workdir string) (bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("steadiness mode reads BENCHMARK.json from the repository root: %w", err)
	}
	var cfg benchmarkFile
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range cfg.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0", "--workdir", workdir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			// Each run's full report is kept for inspection.
			logPath := filepath.Join(workdir, "perfbench", fmt.Sprintf("steady-%s-seed%d.txt", w.Name, seed))
			if werr := os.WriteFile(logPath, out, 0o644); werr != nil {
				return false, werr
			}
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Printf("%s seed %d: run failed (%v %v)\n", w.Name, seed, err, perr)
				ok = false
				continue
			}
			line := fmt.Sprintf("%s seed %d:", w.Name, seed)
			for _, m := range cfg.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				line += fmt.Sprintf(" %s=%.4g", m.Name, v)
			}
			fmt.Println(line)
		}
		fmt.Printf("\n%s: %d runs, seeds 1..%d, %ds each\n", w.Name, n, n, seconds)
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range cfg.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				fmt.Printf("  %-18s fewer than 2 values\n", m.Name)
				ok = false
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := "steady"
			switch {
			case spread > m.Bound && m.Name != "setup_s":
				verdict, ok = "TOO WIDE", false
			case spread > m.Bound/3:
				verdict = "within bound"
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f %s\n", m.Name, q1, med, q3, spread, m.Bound, verdict)
		}
	}
	return ok, nil
}

type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func lastResult(out []byte) (runResult, error) {
	var r runResult
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := bytes.TrimSpace([]byte(lines[len(lines)-1]))
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) and statistics.median give them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	q := func(i int) float64 { // statistics.quantiles, method "exclusive"
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	if ld%2 == 1 {
		med = d[ld/2]
	} else {
		med = (d[ld/2-1] + d[ld/2]) / 2
	}
	return q(1), med, q(3)
}
