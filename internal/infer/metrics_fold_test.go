package infer

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// TestStatsFloodFoldsShardedMetrics hammers a runtime at GOMAXPROCS 8 with
// concurrent submitters while dedicated scraper goroutines spin on Stats()
// the whole time (run under -race). Each scrape folds the buffered arrival
// events into the metric plane and copies it while the
// decision points keep dispatching, so this pins the snapshot contract:
//
//   - every mid-flight snapshot is self-consistent — the batch-size
//     histogram's count and mass and the dispatch and served totals all
//     describe the same set of executed dispatches;
//   - the view is monotone across scrapes (a later snapshot never loses
//     served work a previous one reported);
//   - after the flood drains, every request is counted exactly once.
func TestStatsFloodFoldsShardedMetrics(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	d := replicaDeployment(t, 0.25, 4)
	rt, err := NewRuntime(d, &SyncAll{D: d}, ensemble.NewAccuracyTable(zoo.NewPredictor(3), 500),
		echoExec, RuntimeConfig{Timeline: &sim.WallTimeline{Speedup: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// checkSnapshot asserts the invariants every snapshot must hold
	// regardless of when it raced the decision points: each counter triple
	// (dispatches, histogram, served) is written inside one metric critical
	// section, so a snapshot must never observe a half-applied dispatch.
	checkSnapshot := func(st Stats) error {
		if st.Dropped != 0 {
			return fmt.Errorf("dropped = %d, want 0", st.Dropped)
		}
		histCount, histMass := 0, 0
		for b, c := range st.BatchSizeHist {
			histCount += c
			histMass += b * c
		}
		if histCount != st.Dispatches {
			return fmt.Errorf("histogram holds %d dispatches, folded total %d", histCount, st.Dispatches)
		}
		if histMass != st.Served {
			return fmt.Errorf("histogram mass %d requests, folded served %d", histMass, st.Served)
		}
		return nil
	}

	const submitters, perSubmitter = 8, 200
	const total = submitters * perSubmitter
	var wg sync.WaitGroup
	errs := make(chan error, total+16)
	var stop atomic.Bool
	// Scrapers: snapshot the metric plane as fast as possible while the
	// runtime dispatches, checking self-consistency and monotonicity of each
	// snapshot.
	const scrapers = 4
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastServed := 0
			for !stop.Load() {
				st := rt.Stats()
				if err := checkSnapshot(st); err != nil {
					errs <- fmt.Errorf("mid-flight snapshot: %w", err)
					return
				}
				if st.Served < lastServed {
					errs <- fmt.Errorf("served went backwards: %d after %d", st.Served, lastServed)
					return
				}
				lastServed = st.Served
			}
		}()
	}
	var submitWG sync.WaitGroup
	for c := 0; c < submitters; c++ {
		submitWG.Add(1)
		go func(c int) {
			defer submitWG.Done()
			for i := 0; i < perSubmitter; i++ {
				f, err := rt.Submit(fmt.Sprintf("c%d-%d", c, i))
				if err != nil {
					errs <- err
					return
				}
				if _, err := f.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	submitWG.Wait()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drained: every request is counted exactly once.
	st := rt.Stats()
	if err := checkSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if st.Served != total {
		t.Fatalf("served = %d, want %d", st.Served, total)
	}
	if st.Dispatches == 0 || st.Decisions == 0 {
		t.Fatalf("flood executed nothing: dispatches=%d decisions=%d", st.Dispatches, st.Decisions)
	}
	if st.BatchSizeMean <= 0 {
		t.Fatalf("batch size mean = %v, want > 0", st.BatchSizeMean)
	}
}
