package rafiki

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestDeployBackendSpecValidation covers the backend block's shape checks and
// defaulting: bad types and http specs missing a URL must fail before any
// mutation; a bare {"type":"http","url":...} block picks up the timeout and
// retry defaults.
func TestDeployBackendSpecValidation(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)

	cases := []struct {
		name    string
		backend BackendSpec
		want    string
	}{
		{"unknown type", BackendSpec{Type: "gpu"}, "unknown backend type"},
		{"http without url", BackendSpec{Type: BackendHTTP}, "needs a url"},
		{"http bad timeout", BackendSpec{Type: BackendHTTP, URL: "http://x", TimeoutMS: -5}, "timeout_ms"},
		{"http bad retries", BackendSpec{Type: BackendHTTP, URL: "http://x", MaxRetries: maxBackendRetries + 1}, "max_retries"},
		{"sim with url", BackendSpec{Type: BackendSim, URL: "http://x"}, "takes no url"},
		{"nn with retries", BackendSpec{Type: BackendNN, MaxRetries: 3}, "takes no url"},
	}
	for _, tc := range cases {
		_, err := sys.Deploy(DeploymentSpec{Models: models, Backend: &tc.backend})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Defaulting: an http block fills timeout and retries; the caller's
	// struct must stay untouched (the spec copies before defaulting).
	in := &BackendSpec{Type: BackendHTTP, URL: "http://127.0.0.1:0"}
	inf, err := sys.Deploy(DeploymentSpec{Models: models, Backend: in})
	if err != nil {
		t.Fatal(err)
	}
	got := inf.Spec().Backend
	if got.TimeoutMS != defaultBackendTimeoutMS || got.MaxRetries != defaultBackendMaxRetries {
		t.Fatalf("defaulted backend = %+v", got)
	}
	if in.TimeoutMS != 0 || in.MaxRetries != 0 {
		t.Fatalf("caller's backend block mutated: %+v", in)
	}
	if err := sys.StopInference(inf.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDeployNNBackendServesQueries is the real-inference acceptance test: a
// deployment with backend type "nn" must answer System.Query end to end
// through the in-process networks — deterministic labels from the class
// vocabulary, per-model votes attached, and the status reporting the tier.
func TestDeployNNBackendServesQueries(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)

	inf, err := sys.Deploy(DeploymentSpec{Models: models, Backend: &BackendSpec{Type: BackendNN}})
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.Describe().Status.Backend; got != "nn" {
		t.Fatalf("status backend = %q, want nn", got)
	}

	classes := make(map[string]bool, len(inf.Classes))
	for _, c := range inf.Classes {
		classes[c] = true
	}
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sys.Query(inf.ID, []byte(fmt.Sprintf("nn_photo_%d.jpg", i)))
			if err != nil {
				errs <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if !classes[res.Label] {
				errs <- fmt.Errorf("query %d: label %q not in the vocabulary", i, res.Label)
				return
			}
			if len(res.Votes) == 0 {
				errs <- fmt.Errorf("query %d: no per-model votes", i)
				return
			}
			for m, v := range res.Votes {
				if !classes[v] {
					errs <- fmt.Errorf("query %d: model %s voted %q, not a class", i, m, v)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A network's forward pass is a pure function of the payload, so repeat
	// queries must agree — the nn tier is deterministic like the sim one.
	a, err := sys.Query(inf.ID, []byte("repeat_me.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Query(inf.ID, []byte("repeat_me.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Label != b.Label {
		t.Fatalf("nn answers unstable: %q vs %q", a.Label, b.Label)
	}

	st := inf.Stats()
	if st.Backend != "nn" {
		t.Fatalf("stats backend = %q, want nn", st.Backend)
	}
	if len(st.ModelLatencyEWMA) == 0 {
		t.Fatal("stats missing the latency EWMA vector")
	}
	if err := sys.StopInference(inf.ID); err != nil {
		t.Fatal(err)
	}
}

// TestNNBackendGoldenAnswers pins the nn tier's answers to the ones the
// one-Forward-per-request backend gave before the batched pass replaced it
// (testdata/nn_backend_golden.txt, recorded at that commit): ForwardBatch is
// bit-identical to Forward, so no label and no vote may move. 256 fixed
// payloads come from 32 concurrent callers, so passes see real batches of
// mixed sizes; each answer is one line: payload index, label, and the
// per-model votes in model order.
func TestNNBackendGoldenAnswers(t *testing.T) {
	// One tuning worker per model keeps each study sequential, so the
	// deployed accuracies — the vote's tie-break weights — do not depend on
	// how the workers' trials interleave.
	sys, err := New(Options{Seed: 42, Workers: 1, NodeCapacity: 16, ServeSpeedup: 400})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, err := sys.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := sys.Deploy(DeploymentSpec{Models: models, Backend: &BackendSpec{Type: BackendNN}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.StopInference(inf.ID) }()

	got := goldenAnswers(t, sys, inf.ID, func(i int) string {
		return fmt.Sprintf("golden_%03d_%s.jpg", i, strings.Repeat(string(rune('a'+i%26)), i%19))
	})
	lines := make([]string, len(got))
	for i, res := range got {
		var b strings.Builder
		fmt.Fprintf(&b, "%03d %s", i, res.Label)
		for _, m := range models {
			fmt.Fprintf(&b, " %s=%s", m.Model, res.Votes[m.Model])
		}
		lines[i] = b.String()
	}
	checkGolden(t, "testdata/nn_backend_golden.txt", lines)
}

// TestSimBackendGoldenAnswers pins the default sim tier's answers on a
// 3-model ensemble (testdata/sim_backend_golden.txt): every vote is drawn from
// sim.RNG streams seeded by (payload, model), so any change to how a stream is
// seeded or drawn moves a line. Each line is the payload index, label,
// confidence, and the per-model votes in model order; every third payload
// names a class, which grounds its truth.
func TestSimBackendGoldenAnswers(t *testing.T) {
	sys, err := New(Options{Seed: 42, Workers: 1, NodeCapacity: 16, ServeSpeedup: 400})
	if err != nil {
		t.Fatal(err)
	}
	d := importFood(t, sys)
	job, err := sys.Train(TrainConfig{
		Name: "golden", Data: d.Name, Task: ImageClassification,
		Hyper:  HyperConf{MaxTrials: 10, CoStudy: true},
		Models: []string{"inception_v3", "inception_v4", "inception_resnet_v2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	models, err := sys.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Fatalf("deploying %d models, want 3", len(models))
	}
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.StopInference(inf.ID) }()

	got := goldenAnswers(t, sys, inf.ID, func(i int) string {
		if i%3 == 0 {
			return fmt.Sprintf("sim_golden_%03d_%s.jpg", i, d.Classes[i%len(d.Classes)])
		}
		return fmt.Sprintf("sim_golden_%03d.jpg", i)
	})
	lines := make([]string, len(got))
	for i, res := range got {
		var b strings.Builder
		fmt.Fprintf(&b, "%03d %s %v", i, res.Label, res.Confidence)
		for _, m := range models {
			fmt.Fprintf(&b, " %s=%s", m.Model, res.Votes[m.Model])
		}
		lines[i] = b.String()
	}
	checkGolden(t, "testdata/sim_backend_golden.txt", lines)
}

// goldenAnswers queries 256 fixed payloads from 32 concurrent callers, so
// passes see real batches of mixed sizes, and returns the answers in payload
// order.
func goldenAnswers(t *testing.T, sys *System, id string, payload func(i int) string) []*QueryResult {
	t.Helper()
	const n, callers = 256, 32
	got := make([]*QueryResult, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += callers {
				res, err := sys.Query(id, []byte(payload(i)))
				if err != nil {
					errs <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				got[i] = res
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return got
}

// checkGolden compares answers with a golden file, one line each.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d answers, want %d", path, len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer %d = %q, golden %q", i, got[i], want[i])
		}
	}
}

// TestDeployHTTPBackendServesQueries deploys against a live remote endpoint
// (httptest): the wire protocol round-trips through the spec-built client and
// the remote's class indices come back voted into labels.
func TestDeployHTTPBackendServesQueries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model    string   `json:"model"`
			IDs      []uint64 `json:"ids"`
			Payloads []any    `json:"payloads"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		preds := make([]int, len(req.IDs))
		for i, id := range req.IDs {
			preds[i] = int(id % 5) // 5 food classes
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"predictions": preds})
	}))
	defer srv.Close()

	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, err := sys.Deploy(DeploymentSpec{
		Models:  models,
		Backend: &BackendSpec{Type: BackendHTTP, URL: srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.StopInference(inf.ID) }()

	classes := make(map[string]bool, len(inf.Classes))
	for _, c := range inf.Classes {
		classes[c] = true
	}
	for i := 0; i < 8; i++ {
		res, err := sys.Query(inf.ID, []byte(fmt.Sprintf("remote_%d.jpg", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !classes[res.Label] {
			t.Fatalf("label %q not in the vocabulary", res.Label)
		}
	}
	if got := inf.Describe().Status.Backend; got != "http" {
		t.Fatalf("status backend = %q, want http", got)
	}
}

// TestReconcileBackendSwapLive drives a PUT-style backend change on a serving
// deployment: sim → nn under concurrent query load, with every query
// succeeding across the swap, then back to sim. The recorded spec, status
// tier, and cache epoch must all track the change.
func TestReconcileBackendSwapLive(t *testing.T) {
	sys := newSystem(t)
	d := importFood(t, sys)
	job := trainFood(t, sys, d)
	models, _ := sys.GetModels(job.ID)
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.Describe().Status.Backend; got != "sim" {
		t.Fatalf("initial backend = %q, want sim", got)
	}

	stop := make(chan struct{})
	errs := make(chan error, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.Query(inf.ID, []byte(fmt.Sprintf("swap_%d_%d.jpg", w, i))); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(w)
	}

	desc, err := sys.ReconcileInference(inf.ID, DeploymentSpec{Backend: &BackendSpec{Type: BackendNN}})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Status.Backend != "nn" || desc.Spec.Backend == nil || desc.Spec.Backend.Type != BackendNN {
		t.Fatalf("post-swap description = %+v", desc)
	}
	// Serve some traffic on the new tier, then swap back to the default.
	if _, err := sys.Query(inf.ID, []byte("on_the_new_tier.jpg")); err != nil {
		t.Fatal(err)
	}
	desc, err = sys.ReconcileInference(inf.ID, DeploymentSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Status.Backend != "sim" {
		t.Fatalf("post-revert backend = %q, want sim", desc.Status.Backend)
	}

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sys.StopInference(inf.ID); err != nil {
		t.Fatal(err)
	}
}
