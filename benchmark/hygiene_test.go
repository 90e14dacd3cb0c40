package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back at the baseline:
// closed connections' reader goroutines take a moment to notice.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A repetition must leave nothing behind: no goroutine, no listener.
func TestRepetitionLeavesNothingBehind(t *testing.T) {
	arena, err := newSampleArena()
	if err != nil {
		t.Fatal(err)
	}
	defer arena.close()
	baseline := runtime.NumGoroutine()
	w, _ := findServing("http_hotkey")
	w.warmOps = 500
	in, err := w.inputs(1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDeployment(w, 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := url.Parse(d.queryURL)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.primeCache(in.hotSet); err != nil {
		t.Fatal(err)
	}
	lr := runLoad(loadPlan{callers: d.callers(), warmOps: w.warmOps, slices: 4, sliceDur: 250 * time.Millisecond, limit: w.limit},
		arena, d.op(in, nil, nil))
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	ws, err := lr.stats()
	if err != nil {
		t.Fatal(err)
	}
	if ws.counts.failed+ws.counts.rejected > 0 || ws.counts.correct != ws.counts.answered {
		t.Errorf("smoke window: %+v", ws.counts)
	}
	if conn, err := net.DialTimeout("tcp", u.Host, time.Second); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after close", u.Host)
	}
	waitGoroutines(t, baseline)
}

// The binary's two modes print one JSON object last, with exactly the
// metrics BENCHMARK.json names for that mode, and leave nothing running.
func TestRunPrintsTheManifestsMetrics(t *testing.T) {
	m := readManifest(t)
	baseline := runtime.NumGoroutine()
	for _, c := range []struct {
		workload string
		trace    string
		want     []string
	}{
		{"train_bayes", "0", nil},
		{"query_nn_saturated", "1", nil},
	} {
		for _, e := range m.EndToEnd {
			if c.trace == "0" {
				c.want = append(c.want, e.Name)
			}
		}
		for _, p := range m.PerLayer {
			if c.trace == "1" {
				c.want = append(c.want, p.Name)
			}
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", c.workload, "--seed", "3", "--seconds", "1", "--trace", c.trace,
			"--trace-out", filepath.Join(t.TempDir(), "trace.json")}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s trace=%s (exit %d): last line is not the result: %v\n%s%s", c.workload, c.trace, code, err, stdout.String(), stderr.String())
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s trace=%s: attempted=%d failed=%d", c.workload, c.trace, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("%s trace=%s: %d metrics printed, manifest names %d", c.workload, c.trace, len(res.Metrics), len(c.want))
		}
		for _, name := range c.want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s trace=%s: metric %s missing", c.workload, c.trace, name)
			}
		}
	}
	waitGoroutines(t, baseline)
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("an unknown workload must exit non-zero")
	}
}
