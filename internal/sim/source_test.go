package sim

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the edge seeds of math/rand's normalisation (zero, the
// modulus and its neighbours, the zero substitute, the int64 extremes) plus a
// few hundred random ones.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, int32max, int32max + 1, -int32max, 89482311, math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(2718))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// drawBoth takes n draws from both sources, alternating Uint64 and Int63, and
// fails on the first output that differs.
func drawBoth(t *testing.T, got *source, want rand.Source64, seed int64, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		var g, w uint64
		if k%2 == 0 {
			g, w = got.Uint64(), want.Uint64()
		} else {
			g, w = uint64(got.Int63()), uint64(want.Int63())
		}
		if g != w {
			t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, k+1, g, w)
		}
	}
}

// TestSourceMatchesMathRand: output for output, the lazy source is
// rand.NewSource's, across the promotion at draw lazyDraws+1 and the
// register's first wrap (draws 273/274 and 607/608). One stream compared draw
// by draw covers every shorter draw count.
func TestSourceMatchesMathRand(t *testing.T) {
	for i, seed := range sourceSeeds() {
		n := 2000
		if i < 9 {
			n = 10000
		}
		var s source
		s.Seed(seed)
		drawBoth(t, &s, rand.NewSource(seed).(rand.Source64), seed, n)
	}
}

// TestSourceReseedMidStream: Seed resets a stream at any draw count, lazy or
// promoted, to exactly rand.NewSource's fresh state.
func TestSourceReseedMidStream(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 272, 273, 274, 606, 607, 608, 10000} {
		var s source
		s.Seed(7)
		ref := rand.NewSource(7).(rand.Source64)
		drawBoth(t, &s, ref, 7, n)
		s.Seed(-99)
		ref.Seed(-99)
		drawBoth(t, &s, ref, -99, 700)
	}
}

// TestRNGMatchesMathRand: every distribution drawn through RNG equals the one
// drawn from rand.New(rand.NewSource(seed)), interleaved so draws that
// consume several outputs (NormFloat64's rejection loop, Perm, Shuffle) shift
// every later one.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -5, math.MaxInt64} {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 200; round++ {
			check := func(what string, got, want float64) {
				if got != want {
					t.Fatalf("seed %d round %d %s: %v, math/rand %v", seed, round, what, got, want)
				}
			}
			check("Float64", g.Float64(), ref.Float64())
			check("Intn", float64(g.Intn(1000)), float64(ref.Intn(1000)))
			check("Int63n", float64(g.r.Int63n(1<<40+3)), float64(ref.Int63n(1<<40+3)))
			check("NormFloat64", g.Normal(0, 1), ref.NormFloat64())
			check("ExpFloat64", g.r.ExpFloat64(), ref.ExpFloat64())
			gp, rp := g.Perm(round%9+1), ref.Perm(round%9+1)
			for i := range gp {
				check("Perm", float64(gp[i]), float64(rp[i]))
			}
			ga, ra := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
			g.Shuffle(len(ga), func(i, j int) { ga[i], ga[j] = ga[j], ga[i] })
			ref.Shuffle(len(ra), func(i, j int) { ra[i], ra[j] = ra[j], ra[i] })
			for i := range ga {
				check("Shuffle", float64(ga[i]), float64(ra[i]))
			}
		}
	}
}

// TestRNGAllocs: a short stream is the RNG and its rand.Rand, nothing more;
// a promoted stream draws without allocating.
func TestRNGAllocs(t *testing.T) {
	seed := int64(0)
	short := testing.AllocsPerRun(200, func() {
		seed++
		g := NewRNG(seed)
		for i := 0; i < 5; i++ {
			g.Float64()
		}
	})
	if short > 2 {
		t.Fatalf("NewRNG + 5 draws: %v allocs, want <= 2", short)
	}
	g := NewRNG(3)
	for i := 0; i <= lazyDraws; i++ {
		g.Int63()
	}
	if long := testing.AllocsPerRun(200, func() { g.Float64() }); long != 0 {
		t.Fatalf("promoted draw: %v allocs, want 0", long)
	}
}

// benchSink keeps the benchmarks' draws from being optimised away.
var benchSink float64

// BenchmarkNewRNG compares creating and drawing from a stream against
// rand.New(rand.NewSource(seed)): a short stream (4 draws, the serving
// path's shape) and a long one (1 000 draws, which promotes).
func BenchmarkNewRNG(b *testing.B) {
	for _, bc := range []struct {
		name  string
		draws int
	}{{"short", 4}, {"long", 1000}} {
		b.Run(bc.name+"/lazy", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := NewRNG(int64(i))
				for k := 0; k < bc.draws; k++ {
					benchSink += g.Float64()
				}
			}
		})
		b.Run(bc.name+"/stdlib", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < bc.draws; k++ {
					benchSink += r.Float64()
				}
			}
		})
	}
}
