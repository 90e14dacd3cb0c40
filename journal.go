package rafiki

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"rafiki/internal/journal"
	"rafiki/internal/ps"
)

// Option extends New beyond the plain Options struct — the hook durable
// subsystems attach through.
type Option func(*System) error

// WithJournal attaches a durable, hash-chained write-ahead journal (see
// internal/journal) rooted at dir. Every control-plane mutation — dataset
// imports, train-job submission and completion, deploys, reconciles, scales,
// stops — is appended synchronously *before* its in-memory effect, so the
// journal always holds at least as much history as the live state. After a
// restart, booting with the same dir and calling Recover replays the ledger
// and rebuilds specs, runtimes, replica pools, cache config and backend
// selection to their last-acknowledged state.
func WithJournal(dir string) Option {
	return func(s *System) error {
		jr, err := journal.Open(journal.Config{Dir: dir})
		if err != nil {
			return err
		}
		s.jr = jr
		return nil
	}
}

// Journal record kinds. Mutation records replay on Recover; replica_down and
// replica_restart are audit-only (cluster containers boot fresh on recovery,
// so historical failure events carry no state to rebuild).
const (
	kindDatasetImport  = "dataset_import"
	kindTrainSubmit    = "train_submit"
	kindTrainComplete  = "train_complete"
	kindDeploy         = "deploy"
	kindReconcile      = "reconcile"
	kindScale          = "scale"
	kindStopInference  = "stop_inference"
	kindReplicaDown    = "replica_down"
	kindReplicaRestart = "replica_restart"
)

// Journal payload schemas. Each carries the fully resolved mutation — minted
// ID, defaulted spec, selected models, resolved class vocabulary — so replay
// re-executes it deterministically without re-deriving anything.
type datasetImportRec struct {
	Name    string         `json:"name"`
	Folders map[string]int `json:"folders"`
}

type trainSubmitRec struct {
	ID   string      `json:"id"`
	Conf TrainConfig `json:"conf"`
	// Models is the resolved architecture set (Conf.Models may have been
	// empty, letting the zoo pick a diverse set).
	Models []string `json:"models"`
}

// checkpointRef points at one published checkpoint: its parameter-server key
// and the blob digest holding the gob-encoded weights. The bulk payload stays
// off-ledger; only the digest rides the chain.
type checkpointRef struct {
	Model      string  `json:"model"`
	Key        string  `json:"key"`
	TrialID    string  `json:"trial_id"`
	Accuracy   float64 `json:"accuracy"`
	BlobDigest string  `json:"blob_digest"`
}

type trainCompleteRec struct {
	ID          string          `json:"id"`
	Status      TrainStatus     `json:"status"`
	Checkpoints []checkpointRef `json:"checkpoints,omitempty"`
}

type deployRec struct {
	ID      string         `json:"id"`
	Spec    DeploymentSpec `json:"spec"`
	Classes []string       `json:"classes"`
}

type reconcileRec struct {
	ID   string         `json:"id"`
	Spec DeploymentSpec `json:"spec"`
}

type scaleRec struct {
	ID       string `json:"id"`
	Model    string `json:"model,omitempty"`
	Replicas int    `json:"replicas"`
}

type stopInferenceRec struct {
	ID string `json:"id"`
}

type replicaEventRec struct {
	Job     string `json:"job"`
	Model   string `json:"model"`
	Replica int    `json:"replica"`
}

// journalAppend durably records one mutation before its in-memory effect. A
// nil journal (the default, no WithJournal) makes it free. Append blocks until
// the record is written and fsynced (group-committed with concurrent
// mutations), so a mutation acknowledged to the caller is always on the
// ledger.
func (s *System) journalAppend(kind string, payload any) error {
	if s.jr == nil {
		return nil
	}
	buf, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("rafiki: journal %s: %w", kind, err)
	}
	if _, err := s.jr.Append(kind, buf); err != nil {
		return fmt.Errorf("rafiki: journal %s: %w", kind, err)
	}
	return nil
}

// journalAudit best-effort-records an informational event (replica failures
// and restarts). Audit records are never replayed, and a failing journal must
// not block the cluster's failure handling, so errors are dropped.
func (s *System) journalAudit(kind string, payload any) {
	_ = s.journalAppend(kind, payload)
}

// mintOrAdopt returns forceID when set (a replayed record's identifier,
// adopting its sequence so post-recovery IDs never collide), else mints a
// fresh one.
func (s *System) mintOrAdopt(prefix, forceID string) string {
	if forceID == "" {
		return s.nextID(prefix)
	}
	s.adoptID(forceID)
	return forceID
}

// adoptID advances the ID counter past a replayed identifier's numeric
// suffix.
func (s *System) adoptID(id string) {
	i := strings.LastIndex(id, "-")
	if i < 0 {
		return
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// journalTrainComplete appends a training job's completion record: its final
// snapshot plus each model's best checkpoint, gob-encoded into the journal's
// content-addressed blob sidecar with only digests on-ledger. Called exactly
// once per job (guarded by completeOnce) *before* the snapshot becomes
// observable, so a deploy following Wait always orders after the completion
// on the ledger — and recovery restores the checkpoints instead of
// re-training.
func (s *System) journalTrainComplete(id string, final TrainStatus) error {
	if s.jr == nil {
		return nil
	}
	rec := trainCompleteRec{ID: id, Status: final}
	for _, model := range final.Models {
		best, err := s.jobBest(id, model)
		if err != nil {
			continue // an errored job may have published nothing for this model
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(best); err != nil {
			return fmt.Errorf("rafiki: journal checkpoint %s: %w", model, err)
		}
		digest, err := s.jr.PutBlob(buf.Bytes())
		if err != nil {
			return fmt.Errorf("rafiki: journal checkpoint %s: %w", model, err)
		}
		rec.Checkpoints = append(rec.Checkpoints, checkpointRef{
			Model:      model,
			Key:        best.Owner + "/" + best.TrialID,
			TrialID:    best.TrialID,
			Accuracy:   best.Accuracy,
			BlobDigest: digest,
		})
	}
	return s.journalAppend(kindTrainComplete, rec)
}

// RecoverReport summarizes a journal replay.
type RecoverReport struct {
	// Records is how many journal records were read; Applied counts the
	// mutations re-executed or restored, Audit the informational records
	// (replica failure events) replay does not act on.
	Records int `json:"records"`
	Applied int `json:"applied"`
	Audit   int `json:"audit"`
	// Warnings lists records whose replay failed. A mutation rejected at
	// journaling time (the record lands before the effect is attempted)
	// fails identically on replay, so the replayed state still converges on
	// the pre-crash state; genuine divergence (a missing blob, say) also
	// surfaces here rather than aborting the rest of the replay.
	Warnings []string `json:"warnings,omitempty"`
}

// Recover replays the attached journal onto a freshly booted System,
// rebuilding datasets, training jobs (completed ones restore their published
// checkpoints from the blob sidecar; jobs the crash interrupted re-train),
// deployments with their reconciled specs, replica pools, cache config and
// backend selection. The chain is re-verified during the read: a corrupted
// journal aborts recovery with a *journal.CorruptionError naming the first
// bad sequence.
func (s *System) Recover() (*RecoverReport, error) {
	if s.jr == nil {
		return nil, fmt.Errorf("rafiki: recover needs a journal (boot with WithJournal)")
	}
	s.mu.Lock()
	virgin := s.seq == 0 && len(s.trainJobs) == 0 && len(s.inferJobs) == 0 && len(s.datasets) == 0
	s.mu.Unlock()
	if !virgin {
		return nil, fmt.Errorf("rafiki: recover must run before any other mutation")
	}
	recs, err := s.jr.Records(0)
	if err != nil {
		return nil, fmt.Errorf("rafiki: recover: %w", err)
	}
	// Index completions first: a completed training job is restored from its
	// journaled checkpoints instead of being re-trained.
	completions := map[string]*trainCompleteRec{}
	for _, rec := range recs {
		if rec.Kind != kindTrainComplete {
			continue
		}
		var c trainCompleteRec
		if err := json.Unmarshal(rec.Payload, &c); err == nil {
			completions[c.ID] = &c
		}
	}
	rep := &RecoverReport{Records: len(recs)}
	for _, rec := range recs {
		applied, audit, err := s.replayRecord(rec, completions)
		switch {
		case err != nil:
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("seq %d (%s): %v", rec.Seq, rec.Kind, err))
		case audit:
			rep.Audit++
		case applied:
			rep.Applied++
		}
	}
	return rep, nil
}

// replayRecord re-executes one journal record through the same internal
// mutation paths live callers use, with record=false so replay never
// re-appends.
func (s *System) replayRecord(rec journal.Record, completions map[string]*trainCompleteRec) (applied, audit bool, err error) {
	switch rec.Kind {
	case kindDatasetImport:
		var p datasetImportRec
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return false, false, err
		}
		_, err := s.importImages(p.Name, p.Folders, false)
		return err == nil, false, err
	case kindTrainSubmit:
		var p trainSubmitRec
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return false, false, err
		}
		if comp, ok := completions[p.ID]; ok {
			err := s.restoreTrainJob(p, comp)
			return err == nil, false, err
		}
		// The process died mid-training: re-run the job under its original
		// ID, pinned to the originally selected architectures.
		conf := p.Conf
		if len(conf.Models) == 0 {
			conf.Models = p.Models
		}
		_, err := s.train(conf, p.ID, false)
		return err == nil, false, err
	case kindTrainComplete:
		// Consumed by the matching train_submit's restore.
		return true, false, nil
	case kindDeploy:
		var p deployRec
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return false, false, err
		}
		_, err := s.deploy(p.Spec, p.ID, p.Classes, false)
		return err == nil, false, err
	case kindReconcile:
		var p reconcileRec
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return false, false, err
		}
		_, err := s.reconcileInference(p.ID, p.Spec, false)
		return err == nil, false, err
	case kindScale:
		var p scaleRec
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return false, false, err
		}
		err := s.scaleInference(p.ID, p.Model, p.Replicas, false)
		return err == nil, false, err
	case kindStopInference:
		var p stopInferenceRec
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return false, false, err
		}
		err := s.stopInference(p.ID, false)
		return err == nil, false, err
	case kindReplicaDown, kindReplicaRestart:
		return false, true, nil
	}
	return false, false, fmt.Errorf("unknown record kind %q", rec.Kind)
}

// restoreTrainJob rebuilds a completed training job without re-training: the
// journaled checkpoints are loaded from the blob sidecar (re-hashed against
// their digests, so tampered weights are rejected) back into the parameter
// server, and the job is registered done with its recorded final status.
func (s *System) restoreTrainJob(sub trainSubmitRec, comp *trainCompleteRec) error {
	for _, ck := range comp.Checkpoints {
		raw, err := s.jr.GetBlob(ck.BlobDigest)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", ck.Key, err)
		}
		var c ps.Checkpoint
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&c); err != nil {
			return fmt.Errorf("checkpoint %s: %w", ck.Key, err)
		}
		if err := s.ps.Put(ck.Key, &c); err != nil {
			return fmt.Errorf("checkpoint %s: %w", ck.Key, err)
		}
	}
	final := comp.Status
	final.Done = true
	job := &TrainJob{
		ID:     sub.ID,
		Conf:   sub.Conf,
		sys:    s,
		models: final.Models,
		final:  &final,
	}
	job.completeOnce.Do(func() {}) // already complete: never re-journal
	s.adoptID(sub.ID)
	s.mu.Lock()
	s.trainJobs[sub.ID] = job
	s.mu.Unlock()
	return nil
}

// Close shuts the System down: the journal first — so the teardown below is
// not recorded as operator intent; closing is the process ending, not a
// StopInference — then every live deployment's autoscaler, runtime and
// containers. Running training jobs are not interrupted: their workers finish
// in the background, and a completion landing after Close simply is not
// journaled, so the job replays as incomplete and re-trains on recovery.
func (s *System) Close() error {
	var firstErr error
	if s.jr != nil {
		firstErr = s.jr.Close()
	}
	s.mu.Lock()
	jobs := make([]*InferenceJob, 0, len(s.inferJobs))
	for _, j := range s.inferJobs {
		jobs = append(jobs, j)
	}
	s.inferJobs = map[string]*InferenceJob{}
	s.mu.Unlock()
	for _, job := range jobs {
		if err := s.teardownJob(job); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ErrNoJournal reports a journal operation on a System booted without one.
var ErrNoJournal = errors.New("rafiki: journal not enabled")

// JournalRecords returns the journaled records with Seq > since, re-verifying
// the chain as it reads — the GET /api/v1/journal resource.
func (s *System) JournalRecords(since uint64) ([]journal.Record, error) {
	if s.jr == nil {
		return nil, ErrNoJournal
	}
	return s.jr.Records(since)
}

// JournalVerify re-walks the journal's hash chain — the GET
// /api/v1/journal/verify resource.
func (s *System) JournalVerify() (journal.VerifyResult, error) {
	if s.jr == nil {
		return journal.VerifyResult{}, ErrNoJournal
	}
	return s.jr.Verify(), nil
}

// JournalStats is the journal block of SystemStats: the ledger's counters
// plus a live chain verification.
type JournalStats struct {
	journal.Stats
	ChainOK bool `json:"chain_ok"`
}

// SystemStats is the system-wide snapshot behind GET /api/v1/stats.
type SystemStats struct {
	Datasets    int           `json:"datasets"`
	TrainJobs   int           `json:"train_jobs"`
	Deployments int           `json:"deployments"`
	Journal     *JournalStats `json:"journal,omitempty"`
}

// Stats snapshots system-wide resource counts. With a journal attached it
// includes the ledger's counters and re-verifies the whole hash chain
// (chain_ok), so tampering surfaces on the monitoring path, not just at boot.
func (s *System) Stats() SystemStats {
	s.mu.Lock()
	st := SystemStats{
		Datasets:    len(s.datasets),
		TrainJobs:   len(s.trainJobs),
		Deployments: len(s.inferJobs),
	}
	s.mu.Unlock()
	if s.jr != nil {
		js := &JournalStats{Stats: s.jr.Stats()}
		js.ChainOK = s.jr.Verify().ChainOK
		st.Journal = js
	}
	return st
}
