package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventLoopOrdering(t *testing.T) {
	l := NewEventLoop()
	var got []int
	l.Schedule(3, func() { got = append(got, 3) })
	l.Schedule(1, func() { got = append(got, 1) })
	l.Schedule(2, func() { got = append(got, 2) })
	l.RunUntil(10)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 10 {
		t.Fatalf("clock = %v, want 10 after RunUntil", l.Now())
	}
}

func TestEventLoopSameTimeFIFO(t *testing.T) {
	l := NewEventLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(1, func() { got = append(got, i) })
	}
	l.RunUntil(1)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestEventLoopNestedSchedule(t *testing.T) {
	l := NewEventLoop()
	fired := 0
	l.Schedule(1, func() {
		fired++
		l.After(1, func() { fired++ })
	})
	l.RunUntil(5)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEventLoopCancel(t *testing.T) {
	l := NewEventLoop()
	fired := false
	e := l.Schedule(1, func() { fired = true })
	if !l.Cancel(e) {
		t.Fatal("cancel should succeed for pending event")
	}
	if l.Cancel(e) {
		t.Fatal("double cancel should fail")
	}
	l.RunUntil(2)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEventLoopRunUntilBoundary(t *testing.T) {
	l := NewEventLoop()
	fired := 0
	l.Schedule(5, func() { fired++ })
	l.Schedule(5.0001, func() { fired++ })
	l.RunUntil(5)
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly the boundary event", fired)
	}
	l.RunUntil(6)
	if fired != 2 {
		t.Fatalf("fired = %d after second window, want 2", fired)
	}
}

func TestEventLoopSchedulePastPanics(t *testing.T) {
	l := NewEventLoop()
	l.Schedule(3, func() {})
	l.RunUntil(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	l.Schedule(1, func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	c1 := g.Split()
	c2 := g.Split()
	diff := 0
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			diff++
		}
	}
	if diff < 45 {
		t.Fatalf("split children look correlated: only %d/50 samples differ", diff)
	}
}

func TestRNGSplitNamedStable(t *testing.T) {
	a := NewRNG(7).SplitNamed("workload")
	b := NewRNG(7).SplitNamed("workload")
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("SplitNamed not reproducible for same (seed,label)")
		}
	}
	c := NewRNG(7).SplitNamed("zoo")
	d := NewRNG(7).SplitNamed("workload")
	equal := 0
	for i := 0; i < 20; i++ {
		if c.Float64() == d.Float64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatal("different labels produced correlated streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(1)
	f := func(seed int64) bool {
		v := g.Uniform(2, 5)
		return v >= 2 && v < 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGLogUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.LogUniform(1e-4, 1)
		if v < 1e-4 || v >= 1 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(3)
	n := 20000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Normal(2, 3)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("mean = %v, want ~2", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.15 {
		t.Fatalf("stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestRNGPoissonMean(t *testing.T) {
	g := NewRNG(4)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > 0.05*mean+0.1 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	g := NewRNG(6)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := g.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
