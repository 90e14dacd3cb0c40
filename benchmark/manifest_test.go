package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json must list exactly the workloads and metrics the binary
// prints, with the same units.
func TestManifestMatchesBinary(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: manifest %v, binary %v", names, want)
	}
	e2e := map[string]string{}
	setup := false
	for _, e := range m.EndToEnd {
		e2e[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > e.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("manifest needs setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("end_to_end: manifest %v, binary %v", e2e, endToEndUnits)
	}
	var layers []layerMetric
	for _, p := range m.PerLayer {
		layers = append(layers, layerMetric{p.Name, p.Unit, p.Better})
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the binary's table:\nmanifest %v\nbinary   %v", layers, perLayer)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v / paths %v: want bash benchmark/run.sh in benchmark", m.Command, m.Paths)
	}
}

// allowedImports is the benchmark's whole compile surface inside the
// repository. Anything else — internal/exp, internal/tunerpc, internal/infer
// and its constructors — may be reshaped or deleted without touching the
// benchmark.
var allowedImports = []string{
	"rafiki",
	"rafiki/internal/advisor",
	"rafiki/internal/ensemble",
	"rafiki/internal/gp",
	"rafiki/internal/nn",
	"rafiki/internal/predcache",
	"rafiki/internal/ps",
	"rafiki/internal/rest",
	"rafiki/internal/scenarios",
	"rafiki/internal/sim",
	"rafiki/internal/surrogate",
	"rafiki/internal/tune",
}

func TestCompileSurfaceIsNarrow(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "rafiki" || strings.HasPrefix(path, "rafiki/") {
				seen[path] = true
			}
		}
		// Names of the SDK a later simplification is expected to delete.
		for _, banned := range []string{"InferenceWithOpts", ".Inference(", "InferenceOpts", "Shards", "DispatchGroups", "dispatch_groups", `"shards"`} {
			if strings.Contains(string(src), banned) {
				t.Errorf("%s mentions %s, which the benchmark must not depend on", f, banned)
			}
		}
	}
	var got []string
	for p := range seen {
		got = append(got, p)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, allowedImports) {
		t.Errorf("repository imports %v, want exactly %v", got, allowedImports)
	}
}
