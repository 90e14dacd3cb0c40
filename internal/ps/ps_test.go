package ps

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rafiki/internal/store"
)

func ckpt(model, trial string, acc float64, layers ...Layer) *Checkpoint {
	return &Checkpoint{Model: model, TrialID: trial, Accuracy: acc, Quality: acc, Layers: layers}
}

func layer(name string, shape []int, fill float64) Layer {
	n := 1
	for _, s := range shape {
		n *= s
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = fill
	}
	return Layer{Name: name, Shape: shape, Data: data}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New(4, nil)
	c := ckpt("resnet", "t1", 0.91, layer("conv1", []int{3, 3, 16}, 1.5))
	if err := s.Put("resnet/t1", c); err != nil {
		t.Fatal(err)
	}
	got, ver, err := s.Get("resnet/t1")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || got.Accuracy != 0.91 || len(got.Layers) != 1 {
		t.Fatalf("got %+v ver %d", got, ver)
	}
	// Deep copy: mutating the returned checkpoint must not affect storage.
	got.Layers[0].Data[0] = -99
	again, _, _ := s.Get("resnet/t1")
	if again.Layers[0].Data[0] != 1.5 {
		t.Fatal("Get leaked internal storage")
	}
	// And mutating the original after Put must not either.
	c.Layers[0].Data[0] = 42
	again2, _, _ := s.Get("resnet/t1")
	if again2.Layers[0].Data[0] != 1.5 {
		t.Fatal("Put aliased caller storage")
	}
}

func TestVersionsBump(t *testing.T) {
	s := New(2, nil)
	s.Put("k", ckpt("m", "t1", 0.5))
	s.Put("k", ckpt("m", "t2", 0.6))
	got, ver, _ := s.Get("k")
	if ver != 2 || got.TrialID != "t2" {
		t.Fatalf("ver=%d trial=%s", ver, got.TrialID)
	}
}

func TestGetMissing(t *testing.T) {
	s := New(2, nil)
	if _, _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	s := New(2, nil)
	if err := s.Put("", ckpt("m", "t", 0.1)); err == nil {
		t.Fatal("empty key should error")
	}
	if err := s.Put("k", nil); err == nil {
		t.Fatal("nil checkpoint should error")
	}
}

func TestDelete(t *testing.T) {
	s := New(2, nil)
	s.Put("m/t1", ckpt("m", "t1", 0.5))
	if err := s.Delete("m/t1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("m/t1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key still readable")
	}
	if err := s.Delete("m/t1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete should be ErrNotFound")
	}
	if _, err := s.BestForModel("m"); !errors.Is(err, ErrNotFound) {
		t.Fatal("model index should be cleaned up")
	}
}

func TestBestForModel(t *testing.T) {
	s := New(4, nil)
	s.Put("m/t1", ckpt("m", "t1", 0.70))
	s.Put("m/t2", ckpt("m", "t2", 0.92))
	s.Put("m/t3", ckpt("m", "t3", 0.85))
	s.Put("other/t1", ckpt("other", "t1", 0.99))
	best, err := s.BestForModel("m")
	if err != nil {
		t.Fatal(err)
	}
	if best.TrialID != "t2" {
		t.Fatalf("best = %s, want t2", best.TrialID)
	}
	if _, err := s.BestForModel("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal("unknown model should be ErrNotFound")
	}
}

func TestShapeKeyAndFetchMatching(t *testing.T) {
	l := layer("conv3", []int{3, 3, 64}, 0)
	if l.ShapeKey() != "conv3:3x3x64" {
		t.Fatalf("shapeKey = %s", l.ShapeKey())
	}
	s := New(4, nil)
	// ConvNet a: conv3 is 3x3x64 at accuracy 0.8.
	s.Put("a/t1", ckpt("a", "t1", 0.8,
		layer("conv3", []int{3, 3, 64}, 1),
		layer("fc", []int{64, 10}, 2)))
	// ConvNet b shares conv3's config at better accuracy, different fc.
	s.Put("b/t1", ckpt("b", "t1", 0.9,
		layer("conv3", []int{3, 3, 64}, 3),
		layer("fc", []int{128, 10}, 4)))

	// New trial wants conv3:3x3x64 and fc:64x10.
	got := s.FetchMatching([]string{"conv3:3x3x64", "fc:64x10", "conv9:5x5x8"})
	if len(got) != 2 {
		t.Fatalf("matched %d signatures, want 2", len(got))
	}
	// conv3 must come from b (higher accuracy checkpoint).
	if got["conv3:3x3x64"].Data[0] != 3 {
		t.Fatal("shape-matched fetch should prefer the more accurate checkpoint")
	}
	if got["fc:64x10"].Data[0] != 2 {
		t.Fatal("fc should come from the only matching checkpoint")
	}
	if _, ok := got["conv9:5x5x8"]; ok {
		t.Fatal("unmatched signature should be absent")
	}
}

// TestFetchMatchingTiesCountsAndCopies: equal accuracies go to the first key
// in sorted order, a signature requested twice is answered once, only exact
// signatures match, every stored checkpoint counts one read, and the layers
// handed out are copies the caller may mutate.
func TestFetchMatchingTiesCountsAndCopies(t *testing.T) {
	s := New(4, nil)
	s.Put("b/t1", ckpt("b", "t1", 0.7, layer("conv", []int{3, 3}, 2), layer("conv", []int{3, 3}, 9)))
	s.Put("a/t1", ckpt("a", "t1", 0.7, layer("conv", []int{3, 3}, 1)))
	s.Put("c/t1", ckpt("c", "t1", 0.6, layer("fc", []int{8, 2}, 3), layer("conv", []int{3, 3}, 4)))
	s.Put("d/t1", ckpt("d", "t1", 0.9, layer("conv", []int{3, 3, 1}, 5), layer("conv3", []int{3}, 6)))

	got := s.FetchMatching([]string{"conv:3x3", "fc:8x2", "conv:3x3", "conv:03x3", "conv:3x3x", "conv3:3"})
	if len(got) != 3 {
		t.Fatalf("matched %d signatures (%v), want 3", len(got), got)
	}
	if l := got["conv:3x3"]; l.Data[0] != 1 || l.Name != "conv" || len(l.Shape) != 2 {
		t.Fatalf("conv:3x3 = %+v, want a/t1's layer (first key among equal accuracies)", l)
	}
	if l := got["fc:8x2"]; l.Data[0] != 3 {
		t.Fatalf("fc:8x2 = %+v, want c/t1's", l)
	}
	if l := got["conv3:3"]; l.Data[0] != 6 {
		t.Fatalf("conv3:3 = %+v, want d/t1's", l)
	}
	for _, sh := range s.shards {
		for key, e := range sh.entries {
			if e.accesses != 1 {
				t.Fatalf("%s read %d times by one fetch, want 1", key, e.accesses)
			}
		}
	}

	l := got["conv:3x3"]
	l.Data[0], l.Shape[0] = -1, -1
	again := s.FetchMatching([]string{"conv:3x3"})["conv:3x3"]
	if again.Data[0] != 1 || again.Shape[0] != 3 {
		t.Fatalf("mutating a fetched layer reached the store: %+v", again)
	}
	if len(s.FetchMatching(nil)) != 0 {
		t.Fatal("no signatures requested, some returned")
	}
}

// BenchmarkFetchMatching: a warm-start lookup over 256 checkpoints of the
// architecture-tuning shape (eight conv layers and an fc head each).
func BenchmarkFetchMatching(b *testing.B) {
	s := New(16, nil)
	for i := 0; i < 256; i++ {
		layers := make([]Layer, 0, 9)
		for j := 1; j <= 8; j++ {
			layers = append(layers, Layer{Name: fmt.Sprintf("conv%d", j), Shape: []int{3, 3, 32}, Data: []float64{0.9}})
		}
		layers = append(layers, Layer{Name: "fc", Shape: []int{256, 10}, Data: []float64{0.9}})
		s.Put(fmt.Sprint("probe/", i), ckpt("probe", fmt.Sprint("t", i), 0.8+float64(i%17)/100, layers...))
	}
	sigs := []string{"conv1:3x3x32", "conv4:3x3x32", "fc:256x10"}
	b.ReportAllocs()
	for b.Loop() {
		if len(s.FetchMatching(sigs)) != len(sigs) {
			b.Fatal("a signature went unmatched")
		}
	}
}

func TestColdTierSpillAndReload(t *testing.T) {
	fs, err := store.NewFS(2, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(2, fs)
	s.Put("hot", ckpt("m", "hot", 0.9, layer("w", []int{4}, 7)))
	s.Put("cold", ckpt("m", "cold", 0.5, layer("w", []int{4}, 8)))
	// Touch "hot" a few times so only "cold" spills.
	for i := 0; i < 5; i++ {
		s.Get("hot")
	}
	spilled, err := s.SpillCold(3)
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 1 {
		t.Fatalf("spilled = %d, want 1", spilled)
	}
	if s.HotCount() != 1 {
		t.Fatalf("hot count = %d, want 1", s.HotCount())
	}
	// Reading the cold checkpoint transparently reloads it.
	got, _, err := s.Get("cold")
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[0].Data[0] != 8 {
		t.Fatal("cold reload corrupted data")
	}
	if s.HotCount() != 2 {
		t.Fatal("reload should repopulate the hot tier")
	}
}

func TestSpillWithoutColdTierIsNoop(t *testing.T) {
	s := New(2, nil)
	s.Put("k", ckpt("m", "t", 0.5))
	n, err := s.SpillCold(100)
	if err != nil || n != 0 {
		t.Fatalf("spill = %d err=%v, want noop", n, err)
	}
}

func TestKeysSorted(t *testing.T) {
	s := New(8, nil)
	for _, k := range []string{"z", "a", "m"} {
		s.Put(k, ckpt("m", k, 0.1))
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "z" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(8, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("m/t%d-%d", w, i)
				if err := s.Put(key, ckpt("m", key, float64(i)/100)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(s.Keys()) != 800 {
		t.Fatalf("keys = %d, want 800", len(s.Keys()))
	}
	best, err := s.BestForModel("m")
	if err != nil {
		t.Fatal(err)
	}
	if best.Accuracy != 0.99 {
		t.Fatalf("best accuracy = %v", best.Accuracy)
	}
}

func TestBestForModelVisiblePrivacy(t *testing.T) {
	s := New(4, nil)
	pub := ckpt("m", "pub", 0.7)
	pub.Owner, pub.Public = "study-a", true
	priv := ckpt("m", "priv", 0.9)
	priv.Owner, priv.Public = "study-b", false
	legacy := ckpt("m", "legacy", 0.6) // no owner: treated as shared
	s.Put("a/pub", pub)
	s.Put("b/priv", priv)
	s.Put("legacy", legacy)

	// The private owner sees everything it may: its own 0.9 wins.
	best, err := s.BestForModelVisible("m", "study-b")
	if err != nil || best.TrialID != "priv" {
		t.Fatalf("owner view = %+v err=%v", best, err)
	}
	// A stranger sees only public + ownerless: 0.7 wins.
	best, err = s.BestForModelVisible("m", "study-c")
	if err != nil || best.TrialID != "pub" {
		t.Fatalf("stranger view = %+v err=%v", best, err)
	}
	// Unfiltered BestForModel still returns the global best.
	best, err = s.BestForModel("m")
	if err != nil || best.TrialID != "priv" {
		t.Fatalf("global view = %+v err=%v", best, err)
	}
	// Privacy metadata survives cloning.
	cl := best.Clone()
	if cl.Owner != "study-b" || cl.Public {
		t.Fatalf("clone lost privacy metadata: %+v", cl)
	}
}

// TestBestForModelTiesAndCopies: equal accuracies go to the first-stored
// checkpoint, and the winner handed out is a copy the caller may mutate.
func TestBestForModelTiesAndCopies(t *testing.T) {
	s := New(4, nil)
	s.Put("m/first", ckpt("m", "first", 0.8, layer("w", []int{2}, 1)))
	s.Put("m/second", ckpt("m", "second", 0.8, layer("w", []int{2}, 2)))
	best, err := s.BestForModel("m")
	if err != nil || best.TrialID != "first" {
		t.Fatalf("tie winner = %+v err=%v, want first", best, err)
	}
	best.Accuracy, best.Layers[0].Data[0] = 0, -1
	again, _, err := s.Get("m/first")
	if err != nil || again.Accuracy != 0.8 || again.Layers[0].Data[0] != 1 {
		t.Fatalf("mutating the winner reached the store: %+v err=%v", again, err)
	}
}

// TestBestForModelReloadsSpilled: a spilled winner comes back from the cold
// tier, and the scan counts as an access of every candidate.
func TestBestForModelReloadsSpilled(t *testing.T) {
	fs, err := store.NewFS(2, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(2, fs)
	s.Put("m/a", ckpt("m", "a", 0.9, layer("w", []int{4}, 7)))
	s.Put("m/b", ckpt("m", "b", 0.5))
	if n, err := s.SpillCold(1); err != nil || n != 2 {
		t.Fatalf("spilled %d err=%v, want 2", n, err)
	}
	best, err := s.BestForModel("m")
	if err != nil || best.TrialID != "a" || best.Layers[0].Data[0] != 7 {
		t.Fatalf("best after spill = %+v err=%v", best, err)
	}
	if s.HotCount() != 2 {
		t.Fatalf("hot count = %d, want both reloaded", s.HotCount())
	}
	if n, _ := s.SpillCold(1); n != 0 {
		t.Fatalf("spilled %d just-scanned checkpoints", n)
	}
}

// TestBestForOwnerScopesToOwner: another owner's checkpoints never answer,
// even public and more accurate ones.
func TestBestForOwnerScopesToOwner(t *testing.T) {
	s := New(4, nil)
	other := ckpt("m", "other", 0.95)
	other.Owner, other.Public = "job-a/m", true
	mine := ckpt("m", "mine", 0.6)
	mine.Owner = "job-b/m"
	s.Put("job-a/m/other", other)
	s.Put("job-b/m/mine", mine)
	best, err := s.BestForOwner("m", "job-b/m")
	if err != nil || best.TrialID != "mine" {
		t.Fatalf("owner best = %+v err=%v, want mine", best, err)
	}
	if _, err := s.BestForOwner("m", "job-c/m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("owner without checkpoints: err = %v, want ErrNotFound", err)
	}
}

// TestBestForModelAllocsFlat: a warm-start lookup clones only its winner, so
// its allocations do not grow with how many checkpoints other studies stored.
func TestBestForModelAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s := New(8, nil)
		for i := 0; i < n; i++ {
			c := ckpt("m", fmt.Sprintf("t%d", i), float64(i%97)/100, layer("w", []int{8}, 1))
			c.Owner = fmt.Sprintf("study-%d", i%7)
			s.Put(fmt.Sprintf("%s/t%d", c.Owner, i), c)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := s.BestForModelVisible("m", "study-3"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); small != large {
		t.Fatalf("BestForModelVisible allocs: %v with 10 checkpoints, %v with 1000", small, large)
	}
}

// TestBestForModelConcurrentWithPutDelete: the scan reads a snapshot of the
// model's key list outside the index lock while Put appends to it and Delete
// replaces it (run under -race).
func TestBestForModelConcurrentWithPutDelete(t *testing.T) {
	s := New(4, nil)
	s.Put("m/base", ckpt("m", "base", 0.5))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("m/w%d-%d", w, i)
				s.Put(key, ckpt("m", key, 0.4))
				if i%2 == 0 {
					if err := s.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
				best, err := s.BestForModel("m")
				if err != nil || best.TrialID != "base" {
					t.Errorf("best = %+v err=%v, want base", best, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
