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
