package rafiki

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rafiki/internal/journal"
)

// journalDir honors RAFIKI_JOURNAL_DIR so `make verify-journal` can point the
// round-trip test at a directory it then audits offline with
// `rafiki-bench -verify-journal`; tests default to a scratch dir.
func journalDir(t *testing.T) string {
	t.Helper()
	if dir := os.Getenv("RAFIKI_JOURNAL_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

func newJournaledSystem(t *testing.T, dir string) *System {
	t.Helper()
	sys, err := New(
		Options{Seed: 42, Workers: 2, NodeCapacity: 16, ServeSpeedup: 400},
		WithJournal(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestJournalKillRestartRoundTrip is the durability acceptance test: build a
// full control-plane state (dataset, trained job, deployment with cache and
// backend blocks, manual scale), kill the system (Close journals nothing —
// it is the crash), boot a fresh one over the same journal directory, and
// require Recover to reproduce the identical declarative state: same
// describe() spec, same replica layout, a training job that reports done
// with the same best models, and a deployment that serves queries.
func TestJournalKillRestartRoundTrip(t *testing.T) {
	dir := journalDir(t)

	sys1 := newJournaledSystem(t, dir)
	d := importFood(t, sys1)
	job := trainFood(t, sys1, d)
	models, err := sys1.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := sys1.Deploy(DeploymentSpec{
		Models:   models,
		Policy:   PolicyGreedy,
		QueueCap: 512,
		Replicas: ReplicaBounds{Min: 1, Max: 4},
		Cache:    &CacheSpec{Enabled: true, AdmitThreshold: 1.5},
		Backend:  &BackendSpec{Type: BackendSim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys1.ScaleInference(inf.ID, models[0].Model, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys1.Query(inf.ID, []byte("roundtrip_pizza.jpg")); err != nil {
		t.Fatal(err)
	}

	before := inf.Describe()
	status1 := job.Status()
	stats1 := sys1.Stats()
	if stats1.Journal == nil || !stats1.Journal.ChainOK || stats1.Journal.Records == 0 {
		t.Fatalf("pre-kill journal stats = %+v", stats1.Journal)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot over the same ledger.
	sys2 := newJournaledSystem(t, dir)
	t.Cleanup(func() { _ = sys2.Close() })
	rec, err := sys2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Warnings) != 0 {
		t.Fatalf("recovery warnings: %v", rec.Warnings)
	}
	if rec.Applied == 0 || uint64(rec.Records) != stats1.Journal.Records {
		t.Fatalf("recovery report = %+v, want %d records", rec, stats1.Journal.Records)
	}

	// Dataset and training job come back, the job already done with the
	// same published models (restored from checkpoint blobs, not re-trained).
	if _, err := sys2.Dataset("food"); err != nil {
		t.Fatal(err)
	}
	job2, err := sys2.TrainJobByID(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	status2 := job2.Status()
	if !status2.Done || status2.Finished != status1.Finished {
		t.Fatalf("recovered train status = %+v, want done with %d finished", status2, status1.Finished)
	}
	models2, err := sys2.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(models, models2) {
		t.Fatalf("recovered models = %+v, want %+v", models2, models)
	}

	// The deployment's REST resource is identical: same ID, byte-equal spec,
	// and the same observed topology (replica layout including the manual
	// scale, backend tier, live cache block).
	inf2, err := sys2.InferenceJobByID(inf.ID)
	if err != nil {
		t.Fatal(err)
	}
	after := inf2.Describe()
	if after.ID != before.ID {
		t.Fatalf("recovered id = %s, want %s", after.ID, before.ID)
	}
	if !reflect.DeepEqual(after.Spec, before.Spec) {
		t.Fatalf("recovered spec = %+v, want %+v", after.Spec, before.Spec)
	}
	if !reflect.DeepEqual(after.Status.Replicas, before.Status.Replicas) {
		t.Fatalf("recovered replicas = %v, want %v", after.Status.Replicas, before.Status.Replicas)
	}
	if after.Status.Replicas[models[0].Model] != 2 {
		t.Fatalf("manual scale lost: replicas = %v", after.Status.Replicas)
	}
	if after.Status.Policy != before.Status.Policy || after.Status.Backend != before.Status.Backend {
		t.Fatalf("recovered policy/backend = %s/%s, want %s/%s",
			after.Status.Policy, after.Status.Backend, before.Status.Policy, before.Status.Backend)
	}
	if (after.Status.Cache == nil) != (before.Status.Cache == nil) {
		t.Fatalf("recovered cache presence = %v, want %v", after.Status.Cache != nil, before.Status.Cache != nil)
	}

	// The recovered deployment serves.
	res, err := sys2.Query(inf.ID, []byte("roundtrip_pizza.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || res.Confidence <= 0 {
		t.Fatalf("recovered query = %+v", res)
	}

	// Post-recovery mutations keep extending the same chain.
	if err := sys2.ScaleInference(inf.ID, models[0].Model, 3); err != nil {
		t.Fatal(err)
	}
	ver, err := sys2.JournalVerify()
	if err != nil {
		t.Fatal(err)
	}
	if !ver.ChainOK || ver.LastSeq <= stats1.Journal.LastSeq {
		t.Fatalf("post-recovery verify = %+v (pre-kill last_seq %d)", ver, stats1.Journal.LastSeq)
	}
}

// TestRecoverIgnoresRetiredQueueKeys: a deploy record written when the
// serving queue still had shards and dispatch groups carries "shards" and
// "dispatch_groups" in its spec. Recover ignores both like any unknown key
// and the deployment serves from its one FIFO.
func TestRecoverIgnoresRetiredQueueKeys(t *testing.T) {
	dir := t.TempDir()
	sys1 := newJournaledSystem(t, dir)
	job := trainFood(t, sys1, importFood(t, sys1))
	models, err := sys1.GetModels(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	rawModels, err := json.Marshal(models)
	if err != nil {
		t.Fatal(err)
	}
	rec := fmt.Sprintf(`{"id":"infer-0100","spec":{"models":%s,"shards":8,"dispatch_groups":4}}`, rawModels)
	if _, err := sys1.jr.Append(kindDeploy, []byte(rec)); err != nil {
		t.Fatal(err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := newJournaledSystem(t, dir)
	defer sys2.Close()
	rep, err := sys2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("recover warnings: %v", rep.Warnings)
	}
	inf, err := sys2.InferenceJobByID("infer-0100")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Query(inf.ID, []byte("retired_keys_pizza.jpg")); err != nil {
		t.Fatal(err)
	}
	desc := inf.Describe()
	raw, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"shards"`)) || bytes.Contains(raw, []byte(`"dispatch_groups"`)) {
		t.Fatalf("recovered description carries a retired key: %s", raw)
	}
	if desc.Status.Served != 1 || desc.Status.QueueLen != 0 {
		t.Fatalf("recovered status = served %d queue_len %d, want 1/0", desc.Status.Served, desc.Status.QueueLen)
	}
}

// TestRecoverDemandsJournalAndVirginSystem pins Recover's preconditions.
func TestRecoverDemandsJournalAndVirginSystem(t *testing.T) {
	plain := newSystem(t)
	if _, err := plain.Recover(); err == nil {
		t.Fatal("Recover without a journal should error")
	}

	sys := newJournaledSystem(t, t.TempDir())
	t.Cleanup(func() { _ = sys.Close() })
	importFood(t, sys)
	if _, err := sys.Recover(); err == nil {
		t.Fatal("Recover on a non-virgin system should error")
	}
}

// TestTamperedJournalIsRejectedOnBoot copies a populated journal, flips one
// payload byte mid-ledger, and requires both the offline audit and a fresh
// boot to refuse the directory, naming the corrupted sequence.
func TestTamperedJournalIsRejectedOnBoot(t *testing.T) {
	dir := t.TempDir()
	sys := newJournaledSystem(t, dir)
	importFood(t, sys)
	trainFood(t, sys, importHelperSecondDataset(t, sys))
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Copy the ledger and corrupt the copy so the original stays auditable.
	tampered := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, err %v", segs, err)
	}
	for _, seg := range segs {
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tampered, filepath.Base(seg)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	target := filepath.Join(tampered, filepath.Base(segs[0]))
	buf, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload region.
	lines := bytes.SplitAfter(buf, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("want ≥2 records in %s", target)
	}
	idx := len(lines[0]) + len(lines[1])/2
	for !bytes.ContainsAny([]byte{buf[idx]}, "0123456789abcdef") {
		idx++ // land on hex so the mutated line stays valid JSON
	}
	if buf[idx] == 'f' {
		buf[idx] = '0'
	} else {
		buf[idx]++
	}
	if err := os.WriteFile(target, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	res := journal.VerifyDir(tampered)
	if res.ChainOK || res.BadSeq == 0 {
		t.Fatalf("tampered verify = %+v, want broken chain with a bad seq", res)
	}
	if _, err := New(Options{Seed: 1}, WithJournal(tampered)); err == nil {
		t.Fatal("boot over a tampered journal should fail")
	}
	// The pristine original still audits clean.
	if clean := journal.VerifyDir(dir); !clean.ChainOK {
		t.Fatalf("pristine journal broke: %+v", clean)
	}
}

// importHelperSecondDataset gives the tamper test a second mutation so the
// ledger has multiple records to corrupt.
func importHelperSecondDataset(t *testing.T, sys *System) *Dataset {
	t.Helper()
	d, err := sys.ImportImages("drinks", map[string]int{"coffee": 40, "tea": 40})
	if err != nil {
		t.Fatal(err)
	}
	return d
}
