package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pprox/internal/workload"
)

// mix is one workload: a traffic mix the benchmark drives open-loop at a
// fixed nominal rate. Why each exists, and which layers it loads and
// bypasses, is recorded in BENCHMARK.json and README.md.
type mix struct {
	name string
	// nominal is the timed phase's offered rate in req/s: about half the
	// mix's max_rate_rps on a 2-core host, and high enough that an epoch
	// of S fills well inside the shuffle timeout.
	nominal float64
	// postShare is the fraction of requests that are posts.
	postShare float64
	// uniformUsers draws get users uniformly from uniformPopulation;
	// otherwise users follow the dataset's MovieLens activity skew.
	uniformUsers bool
}

var mixes = []mix{
	{name: "get_uniform", nominal: 200, uniformUsers: true},
	{name: "get_zipf", nominal: 240},
	{name: "post_mix", nominal: 130, postShare: 0.5},
}

func mixByName(name string) (mix, bool) {
	for _, m := range mixes {
		if m.name == name {
			return m, true
		}
	}
	return mix{}, false
}

// uniformPopulation is get_uniform's user population: more than 10× the
// reccache default capacity (2048 one-page entries), so hits stay rare.
// Only the first historyParams.Users users have a history; the rest are
// cold-start users whose lookups the LRS answers from popularity.
const uniformPopulation = 50000

// historyParams shapes the preloaded history: MovieLens skews at a size
// the incremental CCO model ingests in about a second, since every run
// sets up three deployments and each preloads it. Like the paper's
// MovieLens slice, the history is the same in every run (the generator's
// fixed seed); --seed varies the traffic.
func historyParams() workload.Params {
	p := workload.MovieLensParams()
	p.Users, p.Items, p.Events = 500, 1200, 1000
	return p
}

// request is one generated client call.
type request struct {
	get    bool
	user   string
	item   string // posts only
	rating string // posts only
}

// source generates a mix's request stream and Poisson arrival gaps; it is
// deterministic in its seed.
type source struct {
	m     mix
	rng   *rand.Rand
	users *rand.Zipf
	items *rand.Zipf
}

// newSource seeds one phase's stream. Each phase of a run draws from its
// own stream so that phases do not shift each other's inputs.
func newSource(m mix, hist workload.Params, seed int64, phase int) *source {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
	return &source{
		m:     m,
		rng:   rng,
		users: rand.NewZipf(rng, hist.UserSkew, 1, uint64(hist.Users-1)),
		items: rand.NewZipf(rng, hist.ItemSkew, 1, uint64(hist.Items-1)),
	}
}

// gap draws the next exponential inter-arrival time at rate req/s.
func (s *source) gap(rate float64) time.Duration {
	return time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
}

func (s *source) next() request {
	if s.rng.Float64() < s.m.postShare {
		return request{
			user:   workload.UserID(int(s.users.Uint64())),
			item:   workload.ItemID(int(s.items.Uint64())),
			rating: fmt.Sprintf("%.1f", 0.5+float64(s.rng.Intn(10))*0.5),
		}
	}
	if s.m.uniformUsers {
		return request{get: true, user: workload.UserID(s.rng.Intn(uniformPopulation))}
	}
	return request{get: true, user: workload.UserID(int(s.users.Uint64()))}
}

// gridRate is the k-th point of the max-rate search grid: nominal × 1.05^k,
// a fixed 5% grid.
func gridRate(nominal float64, k int) float64 {
	return nominal * math.Pow(1.05, float64(k))
}
