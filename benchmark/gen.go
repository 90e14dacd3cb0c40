package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"rafiki/internal/scenarios"
)

// foodClasses is the label vocabulary of the dataset every workload imports.
// A payload embeds one of these names, which grounds the simulated true label
// (System.Query's documented demo behaviour), so the benchmark can check each
// answer against the truth it generated.
var foodClasses = []string{"pizza", "ramen", "salad", "burger", "sushi", "laksa", "satay", "dumpling"}

// foodFolders is the ImportImages argument for foodClasses.
func foodFolders() map[string]int {
	m := make(map[string]int, len(foodClasses))
	for _, c := range foodClasses {
		m[c] = 200
	}
	return m
}

// queryInputs is the pre-generated input of one serving repetition. Op i uses
// entry i%len(payloads); truth[i] is the class embedded in payloads[i] and
// bodies[i] its pre-marshalled REST request body, so the load generator does
// no formatting inside the measured window.
type queryInputs struct {
	payloads [][]byte
	bodies   [][]byte
	truth    []string
	// dueNs is the open-loop arrival schedule (nanoseconds from the start of
	// the repetition's load phase); nil for closed-loop workloads.
	dueNs []int64
	// hotSet is the hotkey workload's repeated payloads, which set-up primes
	// the prediction cache with.
	hotSet [][]byte
	// key[i] is the hot-set index of payloads[i], -1 for a one-off payload;
	// nil outside the hotkey workload.
	key []int32
}

func newRNG(seed int64, rep int, stream string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range []byte(stream) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*7919 + int64(rep)*104729 + h))
}

// payloadFor names one query. The hex tag keeps payloads distinct; none of
// its characters can spell a class name, so the embedded class is the only
// match truthFor finds.
func payloadFor(tag uint64, class string) []byte {
	return []byte(fmt.Sprintf("img-%012x_%s.jpg", tag&0xffffffffffff, class))
}

func restBody(payload []byte) []byte {
	b, err := json.Marshal(map[string]string{"img": string(payload)})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return b
}

// genDistinct builds n distinct payloads with uniformly drawn classes.
func genDistinct(seed int64, rep, n int) *queryInputs {
	rng := newRNG(seed, rep, "payloads")
	in := &queryInputs{payloads: make([][]byte, n), bodies: make([][]byte, n), truth: make([]string, n)}
	for i := range in.payloads {
		class := foodClasses[rng.Intn(len(foodClasses))]
		in.payloads[i] = payloadFor(uint64(i)<<24|uint64(rng.Intn(1<<24)), class)
		in.bodies[i] = restBody(in.payloads[i])
		in.truth[i] = class
	}
	return in
}

// genPoisson draws an open-loop Poisson schedule at rate arrivals per second:
// warmOps warm-up arrivals, then every arrival due inside the window that
// opens at the due time of arrival number warmOps.
func genPoisson(seed int64, rep int, rate float64, warmOps int, window float64) []int64 {
	rng := newRNG(seed, rep, "arrivals")
	var due []int64
	t, end := 0.0, 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if i == warmOps {
			end = t + window
		}
		if i > warmOps && t >= end {
			return due
		}
		due = append(due, int64(t*1e9))
	}
}

// hotkey workload shape: a Zipf(s=1.1) stream over a hot set that fits the
// prediction cache, its hot region jumping to a disjoint part of the key space
// every hotkeyPhaseOps operations (the internal/scenarios "hotkey" generator
// rotates six times per horizon, so one generator run covers 6×hotkeyPhaseOps
// operations and runs are chained), plus a fixed share of never-repeated
// payloads. The repeated keys are the cache's hit path; the one-off payloads
// stay below the admission threshold and always take the miss path through
// the runtime, so the hit share is set by the workload, not by how far the
// cache has filled when the window opens.
const (
	hotkeyKeys      = 1024
	hotkeyZipfS     = 1.1
	hotkeyPhaseOps  = 5000
	hotkeyColdShare = 0.02
)

// genHotkey builds a stream of n operations and the hot set it draws from.
func genHotkey(seed int64, rep, n int) (*queryInputs, error) {
	sc, ok := scenarios.Lookup("hotkey")
	if !ok {
		return nil, fmt.Errorf("scenarios: no hotkey scenario")
	}
	rng := newRNG(seed, rep, "hotkey")
	var stream []int
	for len(stream) < n {
		cfg := scenarios.Defaults()
		cfg.Keys, cfg.ZipfS = hotkeyKeys, hotkeyZipfS
		cfg.BaseRate, cfg.Duration, cfg.Tick = 6*hotkeyPhaseOps, 1, 0.01
		cfg.Seed = rng.Int63()
		g, err := sc.New(cfg)
		if err != nil {
			return nil, err
		}
		stream = append(stream, g.Stream()...)
	}
	// One payload per key, its class drawn once: a key always has the same
	// truth, so a cached answer can be checked like a computed one.
	in := &queryInputs{
		payloads: make([][]byte, n), bodies: make([][]byte, n), truth: make([]string, n),
		hotSet: make([][]byte, hotkeyKeys), key: make([]int32, n),
	}
	truth := make([]string, hotkeyKeys)
	bodies := make([][]byte, hotkeyKeys)
	for k := range in.hotSet {
		truth[k] = foodClasses[rng.Intn(len(foodClasses))]
		in.hotSet[k] = payloadFor(uint64(k), truth[k])
		bodies[k] = restBody(in.hotSet[k])
	}
	for i, k := range stream[:n] {
		if rng.Float64() < hotkeyColdShare {
			in.truth[i] = foodClasses[rng.Intn(len(foodClasses))]
			in.payloads[i] = payloadFor(1<<40|uint64(i), in.truth[i])
			in.bodies[i] = restBody(in.payloads[i])
			in.key[i] = -1
			continue
		}
		in.payloads[i], in.bodies[i], in.truth[i], in.key[i] = in.hotSet[k], bodies[k], truth[k], int32(k)
	}
	return in, nil
}
