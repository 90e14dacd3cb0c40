// Package scenarios is the registry of named serving-workload shapes used by
// the end-to-end benchmark (benchmark/gen.go draws http_hotkey's rotating hot
// set from the hotkey scenario). Each scenario couples a
// time-varying arrival rate with a key distribution built on workload.Zipf,
// modelling the traffic patterns a deployed Rafiki application actually sees:
//
//   - diurnal: a day/night sine swing around the base rate over a stable
//     Zipfian key population — the regime the paper's Section 7.2 sine
//     arrivals target, where the scheduler must ride a slow rate cycle.
//   - bursty: long quiet stretches at the base rate punctuated by short
//     multiplicative bursts with randomized spacing — flash-crowd traffic
//     that stresses queue backpressure and batch assembly.
//   - hotkey: a flat rate whose Zipf hot region rotates through the key
//     space in phases — hot-set churn that defeats naive caching and
//     exercises the prediction cache's hotness-tracked admission and decay.
//
// Generators are deterministic in (Config, scenario name): every stochastic
// draw comes from a sim.RNG stream split off the seed with the scenario name,
// so two runs of the same scenario replay the identical key sequence and
// benchmark rows are comparable across commits.
package scenarios

import (
	"fmt"
	"math"
	"sort"

	"rafiki/internal/sim"
	"rafiki/internal/workload"
)

// Config shapes a scenario run. The zero value is not usable; Defaults
// returns the benchmark baseline.
type Config struct {
	// Keys is the key-universe size and ZipfS the skew exponent of the
	// per-request key draw.
	Keys  int
	ZipfS float64
	// BaseRate is the nominal arrival rate in requests per virtual second;
	// scenarios modulate around it.
	BaseRate float64
	// Duration is the virtual time horizon in seconds and Tick the step the
	// generator is advanced by.
	Duration float64
	Tick     float64
	// Seed fixes every stochastic draw. The same (Config, scenario) pair
	// always yields the same stream.
	Seed int64
}

// Defaults is the baseline configuration the benchmark harness runs with:
// 1024 keys at s=1.1 (the prediction-cache benchmark's universe), 200 req/s
// over a 60-second horizon in 100ms ticks.
func Defaults() Config {
	return Config{
		Keys: 1024, ZipfS: 1.1,
		BaseRate: 200, Duration: 60, Tick: 0.1,
		Seed: 11,
	}
}

func (c Config) validate() error {
	if c.Keys <= 0 {
		return fmt.Errorf("scenarios: key universe must be positive, got %d", c.Keys)
	}
	if c.ZipfS <= 0 {
		return fmt.Errorf("scenarios: zipf exponent must be positive, got %v", c.ZipfS)
	}
	if c.BaseRate <= 0 {
		return fmt.Errorf("scenarios: base rate must be positive, got %v", c.BaseRate)
	}
	if c.Duration <= 0 || c.Tick <= 0 || c.Tick > c.Duration {
		return fmt.Errorf("scenarios: need 0 < tick ≤ duration, got tick=%v duration=%v", c.Tick, c.Duration)
	}
	return nil
}

// Generator produces the key draws of one scenario run tick by tick.
type Generator struct {
	cfg  Config
	zipf *workload.Zipf
	rng  *sim.RNG
	// rate is the noiseless arrival rate at virtual time t; remap turns the
	// Zipf rank drawn at time t into the concrete key.
	rate  func(t float64) float64
	remap func(t float64, rank int) int
}

// Rate reports the noiseless arrival rate at virtual time t (requests per
// second) — the shape the scenario modulates, before per-tick noise.
func (g *Generator) Rate(t float64) float64 { return g.rate(t) }

// Tick returns the keys of the requests arriving in (t, t+delta]: a Poisson
// count at the scenario's instantaneous rate, each key drawn from the Zipf
// and passed through the scenario's time-dependent remapping.
func (g *Generator) Tick(t, delta float64) []int {
	n := g.rng.Poisson(delta * g.rate(t))
	if n == 0 {
		return nil
	}
	keys := make([]int, n)
	for i := range keys {
		keys[i] = g.remap(t, g.zipf.Next())
	}
	return keys
}

// Stream runs the generator over the configured horizon and returns the full
// key sequence — the deterministic trace the benchmark replays against the
// serving runtime.
func (g *Generator) Stream() []int {
	var keys []int
	for t := 0.0; t < g.cfg.Duration; t += g.cfg.Tick {
		keys = append(keys, g.Tick(t, g.cfg.Tick)...)
	}
	return keys
}

// Scenario is one registry entry: a name, a one-line description for the
// harness listing, and a constructor.
type Scenario struct {
	Name        string
	Description string
	New         func(cfg Config) (*Generator, error)
}

// newGenerator builds the shared core: a Zipf over the configured universe
// and an RNG stream split by scenario name, so adding a scenario never
// perturbs the draws of existing ones.
func newGenerator(name string, cfg Config) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed).SplitNamed(name)
	z, err := workload.NewZipf(cfg.Keys, cfg.ZipfS, rng.Split())
	if err != nil {
		return nil, err
	}
	return &Generator{
		cfg: cfg, zipf: z, rng: rng,
		rate:  func(float64) float64 { return cfg.BaseRate },
		remap: func(_ float64, rank int) int { return rank },
	}, nil
}

// diurnalAmplitude is the relative swing of the day/night cycle: the rate
// runs between 0.4× and 1.6× the base over one period (= the full horizon,
// so a run sees exactly one "day").
const diurnalAmplitude = 0.6

func newDiurnal(cfg Config) (*Generator, error) {
	g, err := newGenerator("diurnal", cfg)
	if err != nil {
		return nil, err
	}
	g.rate = func(t float64) float64 {
		return cfg.BaseRate * (1 + diurnalAmplitude*math.Sin(2*math.Pi*t/cfg.Duration))
	}
	return g, nil
}

// Bursty: quiet at the base rate, with burstX× spikes of burstLen seconds
// whose spacing is drawn uniformly in [minGap, maxGap) — close enough to
// random that batching can't phase-lock to the bursts, but fully replayable.
const (
	burstX   = 6.0
	burstLen = 1.5
	minGap   = 4.0
	maxGap   = 10.0
)

func newBursty(cfg Config) (*Generator, error) {
	g, err := newGenerator("bursty", cfg)
	if err != nil {
		return nil, err
	}
	// Lay the burst start times down up front so Rate(t) is a pure lookup.
	var starts []float64
	for t := g.rng.Uniform(minGap, maxGap); t < cfg.Duration; t += burstLen + g.rng.Uniform(minGap, maxGap) {
		starts = append(starts, t)
	}
	g.rate = func(t float64) float64 {
		i := sort.SearchFloat64s(starts, t)
		if i > 0 && t < starts[i-1]+burstLen {
			return cfg.BaseRate * burstX
		}
		return cfg.BaseRate
	}
	return g, nil
}

// hotkeyPhases is how many times the hot region moves over the horizon. Each
// phase rotates the rank→key mapping by a large coprime-ish stride, so the
// new hot head is disjoint from the old one and a cache warmed on the
// previous phase starts cold.
const hotkeyPhases = 6

func newHotkey(cfg Config) (*Generator, error) {
	g, err := newGenerator("hotkey", cfg)
	if err != nil {
		return nil, err
	}
	phaseLen := cfg.Duration / hotkeyPhases
	stride := cfg.Keys/hotkeyPhases + 1
	g.remap = func(t float64, rank int) int {
		phase := int(t / phaseLen)
		return (rank + phase*stride) % cfg.Keys
	}
	return g, nil
}

// Registry returns the scenario table in presentation order.
func Registry() []Scenario {
	return []Scenario{
		{
			Name:        "diurnal",
			Description: "day/night sine swing (0.4×–1.6× base rate) over a stable Zipf key population",
			New:         newDiurnal,
		},
		{
			Name:        "bursty",
			Description: fmt.Sprintf("%.0f× flash bursts of %.1fs at randomized %v–%vs gaps over the base rate", burstX, burstLen, minGap, maxGap),
			New:         newBursty,
		},
		{
			Name:        "hotkey",
			Description: fmt.Sprintf("flat rate with the Zipf hot region rotating through the key space in %d phases", hotkeyPhases),
			New:         newHotkey,
		},
	}
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Registry() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
