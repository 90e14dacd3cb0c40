package rafiki

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// specString renders a spec with its cache and backend blocks dereferenced,
// so two specs compare by value, NaN fields included.
func specString(s DeploymentSpec) string {
	c, b := s.Cache, s.Backend
	s.Cache, s.Backend = nil, nil
	out := fmt.Sprintf("%+v", s)
	if c != nil {
		out += fmt.Sprintf(" cache=%+v", *c)
	}
	if b != nil {
		out += fmt.Sprintf(" backend=%+v", *b)
	}
	return out
}

// overrideFloats sets the SLO and the cache's float fields to the raw fuzz
// arguments that are non-zero (JSON cannot carry NaN or ±Inf).
func overrideFloats(spec *DeploymentSpec, slo, ttl, admit, halfLife float64) {
	if slo != 0 {
		spec.SLO = slo
	}
	if c := spec.Cache; c != nil {
		for _, p := range []struct {
			dst *float64
			v   float64
		}{
			{&c.TTLSeconds, ttl}, {&c.AdmitThreshold, admit}, {&c.HalfLifeSeconds, halfLife},
		} {
			if p.v != 0 {
				*p.dst = p.v
			}
		}
	}
}

// FuzzDeploymentSpec decodes a JSON spec body, then overrides the SLO and the
// cache's float fields with raw arguments whenever those are non-zero (JSON
// cannot carry NaN or ±Inf). Defaulting must be idempotent and leave the
// caller's spec alone, validation must not panic, and a spec it accepts must
// carry no NaN.
func FuzzDeploymentSpec(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	body := []byte(`{"models":[{"model":"inception_v3"}],"cache":{"enabled":true}}`)
	f.Add(body, 0.0, 0.0, 0.0, 0.0)
	f.Add(body, nan, 0.0, 0.0, 0.0)
	f.Add(body, inf, -inf, 0.0, 0.0)
	f.Add(body, 0.0, nan, 0.0, 0.0)
	f.Add(body, 0.0, 0.0, nan, 0.0)
	f.Add(body, 0.0, 0.0, 0.0, nan)
	f.Add([]byte(`{"models":[{"model":"a"}],"cache":{"enabled":false}}`), 0.0, nan, inf, -1.0)
	f.Add([]byte(`{"models":[{"model":"a"}],"policy":"rl","slo_seconds":-1,"replicas":{"min":3,"max":2}}`), 0.5, 0.0, 0.0, 0.0)
	f.Add([]byte(`{"models":[{"model":"a"}],"backend":{"type":"http","url":"http://x","max_retries":-1}}`), 0.0, 0.0, 0.0, 0.0)
	opts := Options{ServeSLO: 0.25}
	f.Fuzz(func(t *testing.T, body []byte, slo, ttl, admit, halfLife float64) {
		var spec DeploymentSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		overrideFloats(&spec, slo, ttl, admit, halfLife)
		in := specString(spec)
		d := spec.withDefaults(opts)
		if got := specString(spec); got != in {
			t.Fatalf("withDefaults changed its input:\n%s\n%s", in, got)
		}
		if once, twice := specString(d), specString(d.withDefaults(opts)); once != twice {
			t.Fatalf("withDefaults is not idempotent:\n%s\n%s", once, twice)
		}
		if d.validate() != nil {
			return
		}
		nanField := math.IsNaN(d.SLO)
		if c := d.Cache; c != nil {
			nanField = nanField || math.IsNaN(c.TTLSeconds) || math.IsNaN(c.AdmitThreshold) || math.IsNaN(c.HalfLifeSeconds)
		}
		if nanField {
			t.Fatalf("validate accepted a spec carrying NaN: %s", specString(d))
		}
	})
}

// FuzzReconcileSpec reconciles one live sim deployment to each input: a JSON
// spec body whose model set is dropped (reconcile keeps the deployed one),
// with FuzzDeploymentSpec's float overrides. A refused reconcile must leave
// the recorded spec alone; an accepted one must record exactly the defaulted
// input and be a fixed point when reconciled again; and the deployment
// reports cache stats exactly when its recorded spec enables the cache. The
// deployment outlives each input, so the seeds run as one sequence: enable,
// retune to a smaller capacity, disable, re-enable.
func FuzzReconcileSpec(f *testing.F) {
	sys := newSystem(f)
	job := trainFood(f, sys, importFood(f, sys))
	models, err := sys.GetModels(job.ID)
	if err != nil {
		f.Fatal(err)
	}
	inf, err := sys.Deploy(DeploymentSpec{Models: models})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { sys.StopInference(inf.ID) })
	for _, body := range []string{
		`{"cache":{"enabled":true}}`,
		`{"cache":{"enabled":true,"capacity":64}}`,
		`{"cache":{"enabled":false}}`,
		`{"cache":{"enabled":true,"capacity":256,"ttl_seconds":5}}`,
	} {
		f.Add([]byte(body), 0.0, 0.0, 0.0, 0.0)
	}
	f.Add([]byte(`{"cache":{"enabled":true},"policy":"rl"}`), 0.0, math.NaN(), 0.0, 0.0)
	cacheOn := func(s DeploymentSpec) bool { return s.Cache != nil && s.Cache.Enabled }
	f.Fuzz(func(t *testing.T, body []byte, slo, ttl, admit, halfLife float64) {
		var spec DeploymentSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		spec.Models = nil
		overrideFloats(&spec, slo, ttl, admit, halfLife)
		before := specString(inf.Spec())
		want := spec
		want.Models = inf.Models
		want = want.withDefaults(sys.opts)
		if _, err := sys.ReconcileInference(inf.ID, spec); err != nil {
			if got := specString(inf.Spec()); got != before {
				t.Fatalf("refused reconcile (%v) changed the spec:\n%s\n%s", err, before, got)
			}
		} else {
			if got := specString(inf.Spec()); got != specString(want) {
				t.Fatalf("accepted reconcile recorded\n%s\nwant the defaulted input\n%s", got, specString(want))
			}
			once := specString(inf.Spec())
			if _, err := sys.ReconcileInference(inf.ID, inf.Spec()); err != nil {
				t.Fatalf("reconcile to the recorded spec: %v", err)
			}
			if got := specString(inf.Spec()); got != once {
				t.Fatalf("reconcile to the recorded spec changed it:\n%s\n%s", once, got)
			}
		}
		if on := cacheOn(inf.Spec()); (inf.Stats().Cache != nil) != on {
			t.Fatalf("cache stats present = %v, but the spec enables the cache = %v", !on, on)
		}
	})
}

// TestHyperConfDefaultsNaNDelta: a NaN CoStudy threshold must default like
// an unset one, or acc − best > NaN never holds and no improvement is ever
// checkpointed.
func TestHyperConfDefaultsNaNDelta(t *testing.T) {
	for _, delta := range []float64{0, -1, math.NaN()} {
		if got := (HyperConf{Delta: delta}).withDefaults().Delta; got != 0.005 {
			t.Errorf("Delta %v defaults to %v, want 0.005", delta, got)
		}
	}
}
