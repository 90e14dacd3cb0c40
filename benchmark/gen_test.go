package main

import (
	"bytes"
	"reflect"
	"testing"
)

func flatten(in *queryInputs) []byte {
	var b bytes.Buffer
	for i := range in.payloads {
		b.Write(in.payloads[i])
		b.Write(in.bodies[i])
		b.WriteString(in.truth[i])
	}
	return b.Bytes()
}

// The same seed must give byte-identical inputs — payloads, REST bodies, key
// stream and arrival schedule — and another seed different ones.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range servingWorkloads {
		a, err := w.inputs(7, 1, 2e9)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.inputs(7, 1, 2e9)
		c, _ := w.inputs(8, 1, 2e9)
		if !bytes.Equal(flatten(a), flatten(b)) || !reflect.DeepEqual(a.dueNs, b.dueNs) || !reflect.DeepEqual(a.key, b.key) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if bytes.Equal(flatten(a), flatten(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same payloads", w.name)
		}
		if w.rate > 0 && reflect.DeepEqual(a.dueNs, c.dueNs) {
			t.Errorf("%s: seeds 7 and 8 gave the same arrival schedule", w.name)
		}
		if w.hotkey && reflect.DeepEqual(a.key, c.key) {
			t.Errorf("%s: seeds 7 and 8 gave the same key stream", w.name)
		}
		d, _ := w.inputs(7, 2, 2e9)
		if bytes.Equal(flatten(a), flatten(d)) {
			t.Errorf("%s: repetitions 1 and 2 share their payloads", w.name)
		}
	}
}

func TestPoissonScheduleShape(t *testing.T) {
	const rate, warm, window = 600.0, 600, 2.0
	due := genPoisson(3, 0, rate, warm, window)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	span := float64(due[len(due)-1]-due[warm]) / 1e9
	if span > window || span < 0.98*window {
		t.Errorf("window arrivals span %.3fs, want just under %.1fs", span, window)
	}
	if n := float64(len(due) - warm); n < 0.85*rate*window || n > 1.15*rate*window {
		t.Errorf("%v arrivals in the window, want about %v", n, rate*window)
	}
}

// The hotkey stream must keep the workload's promises: a cold share near the
// configured one, every cold payload unique, every hot payload from the set.
func TestHotkeyStreamShape(t *testing.T) {
	in, err := genHotkey(5, 0, 60000)
	if err != nil {
		t.Fatal(err)
	}
	cold, seen := 0, map[string]bool{}
	for i, k := range in.key {
		if k >= 0 {
			if !bytes.Equal(in.payloads[i], in.hotSet[k]) {
				t.Fatalf("op %d: payload is not hot-set entry %d", i, k)
			}
			continue
		}
		cold++
		if seen[string(in.payloads[i])] {
			t.Fatalf("op %d: one-off payload repeats", i)
		}
		seen[string(in.payloads[i])] = true
	}
	if share := float64(cold) / float64(len(in.key)); share < 0.015 || share > 0.025 {
		t.Errorf("cold share %.4f, want about %.2f", share, hotkeyColdShare)
	}
}
