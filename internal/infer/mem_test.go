package infer_test

import (
	"fmt"
	"runtime"
	"testing"

	"rafiki/internal/ensemble"
	"rafiki/internal/infer"
	"rafiki/internal/sim"
	"rafiki/internal/zoo"
)

// TestServingHeapStaysFlat pins the payload-drop contract of the completion
// pipeline: the runtime nils each request's payload the moment its batch
// completes, so live heap is bounded by in-flight work — not by how many
// requests have passed through. The test pushes payload bytes far exceeding
// the allowed heap growth through the serving plane while deliberately
// holding every Future handle until the end; if completed slots (or the
// recycled pool) retained payload references, the final live heap would
// grow by roughly the full payload volume and the bound would trip.
func TestServingHeapStaysFlat(t *testing.T) {
	const (
		payloadBytes = 1 << 20 // 1 MiB per request
		requests     = 192     // 192 MiB total pushed through
		waveSize     = 16      // bounds true in-flight footprint
		maxGrowth    = 48 << 20
	)
	d, err := infer.NewDeployment(
		[]string{"inception_v3", "inception_v4", "inception_resnet_v2"},
		[]int{1, 2, 4, 8, 16}, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Replicas = []int{4, 4, 4}
	rt, err := infer.NewRuntime(d, &infer.SyncAll{},
		ensemble.NewAccuracyTable(zoo.NewPredictor(1), 200),
		func(ids []uint64, payloads []any, models []string, preds [][]any) ([]any, error) {
			out := make([]any, len(ids))
			for i := range out {
				out[i] = len(payloads[i].([]byte))
			}
			return out, nil
		},
		infer.RuntimeConfig{
			Timeline: &sim.WallTimeline{Speedup: 2000},
			QueueCap: 1 << 20,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	heapAlloc := func() uint64 {
		runtime.GC()
		runtime.GC() // second cycle collects pool-held garbage freed by the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm the runtime and the future pool before baselining.
	for i := 0; i < waveSize; i++ {
		f, err := rt.Submit(make([]byte, payloadBytes))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	base := heapAlloc()

	held := make([]infer.Future, 0, requests)
	for wave := 0; wave < requests/waveSize; wave++ {
		futs := make([]infer.Future, waveSize)
		for i := range futs {
			f, err := rt.Submit(make([]byte, payloadBytes))
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = f
		}
		for _, f := range futs {
			res, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res != payloadBytes {
				t.Fatalf("result = %v, want %d", res, payloadBytes)
			}
		}
		// Keep the handles: a completed future must not pin its payload.
		held = append(held, futs...)
	}

	grown := int64(heapAlloc()) - int64(base)
	if grown > maxGrowth {
		t.Fatalf("live heap grew %s after %s of payloads completed (held %d futures); "+
			"completed requests must not retain payload bytes (bound %s)",
			mib(grown), mib(int64(requests)*payloadBytes), len(held), mib(maxGrowth))
	}
	for _, f := range held {
		f.Release()
	}
}

func mib(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
