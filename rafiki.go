// Package rafiki is a Go reproduction of "Rafiki: Machine Learning as an
// Analytics Service System" (Wang et al., VLDB 2018): a machine-learning
// analytics service offering a distributed hyper-parameter tuning training
// service (Study/CoStudy, Section 4) and a latency/accuracy-aware ensemble
// inference service (greedy batching and an actor-critic RL scheduler,
// Section 5), over shared substrates — a parameter server, an HDFS-like
// block store and a cluster manager (Section 6).
//
// This package is the public SDK, mirroring the paper's Figure 2 workflow:
//
//	sys, _ := rafiki.New(rafiki.Options{})
//	data, _ := sys.ImportImages("food", map[string]int{"pizza": 500, ...})
//	job, _ := sys.Train(rafiki.TrainConfig{
//		Name: "train", Data: data.Name, Task: rafiki.ImageClassification,
//		InputShape: []int{3, 256, 256}, OutputShape: []int{10},
//		Hyper: rafiki.HyperConf{MaxTrials: 40, CoStudy: true},
//	})
//	job.Wait()
//	models, _ := sys.GetModels(job.ID)
//	inf, _ := sys.Deploy(rafiki.DeploymentSpec{Models: models})
//	ret, _ := sys.Query(inf.ID, []byte("pizza-photo.jpg"))
//
// GPU training is simulated by a calibrated surrogate (see DESIGN.md §2);
// everything else — the tuning protocol, parameter server, scheduling,
// storage, serving — is implemented for real on the standard library.
package rafiki

import (
	"fmt"
	"sort"
	"sync"

	"rafiki/internal/cluster"
	"rafiki/internal/journal"
	"rafiki/internal/ps"
	"rafiki/internal/sim"
	"rafiki/internal/store"
	"rafiki/internal/zoo"
)

// Task names re-exported for SDK users.
const (
	ImageClassification = string(zoo.ImageClassification)
	ObjectDetection     = string(zoo.ObjectDetection)
	SentimentAnalysis   = string(zoo.SentimentAnalysis)
)

// Options configures a System.
type Options struct {
	// Nodes is the simulated cluster size (default 3, the paper's testbed).
	Nodes int
	// NodeCapacity is containers per node (default 8).
	NodeCapacity int
	// Seed drives all randomness (default 1).
	Seed int64
	// Workers is the number of tuning workers per training job (default 3).
	Workers int
	// ServeSLO is the inference service's latency SLO τ in seconds
	// (default 0.25): deployed runtimes batch queries under this deadline
	// per Algorithm 3.
	ServeSLO float64
	// ServeSpeedup compresses the serving runtime's wall clock (default 1,
	// real time): with speedup k, one profiled GPU-second of simulated
	// model latency elapses in 1/k wall seconds. Latency metrics stay in
	// profiled seconds either way. Tests and demos use large speedups.
	ServeSpeedup float64
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.NodeCapacity <= 0 {
		o.NodeCapacity = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.ServeSLO <= 0 {
		o.ServeSLO = 0.25
	}
	if o.ServeSpeedup <= 0 {
		o.ServeSpeedup = 1
	}
	return o
}

// System is an in-process Rafiki deployment: cluster manager, parameter
// server, distributed storage and the two services.
type System struct {
	opts Options

	cluster *cluster.Manager
	ps      *ps.Server
	fs      *store.FS
	// rng is read-only after New: it is used only through SplitNamed.
	rng *sim.RNG
	// jr is the write-ahead journal, nil unless booted WithJournal.
	jr *journal.Journal

	mu        sync.Mutex
	seq       int
	trainJobs map[string]*TrainJob
	inferJobs map[string]*InferenceJob
	datasets  map[string]*Dataset
}

// New boots a System: it provisions the simulated cluster nodes, the block
// store's datanodes and the parameter server shards. Extras attach optional
// subsystems — WithJournal enables the durable control plane (pair with
// Recover to replay an existing journal).
func New(opts Options, extras ...Option) (*System, error) {
	opts = opts.withDefaults()
	fs, err := store.NewFS(opts.Nodes, 1<<20, 2)
	if err != nil {
		return nil, fmt.Errorf("rafiki: storage: %w", err)
	}
	mgr := cluster.NewManager(30)
	for i := 0; i < opts.Nodes; i++ {
		if err := mgr.AddNode(fmt.Sprintf("node-%d", i), opts.NodeCapacity); err != nil {
			return nil, fmt.Errorf("rafiki: cluster: %w", err)
		}
	}
	// The first SplitNamed derives the stream's base lazily, a write; taking
	// it here, as that call would, lets concurrent Train calls split s.rng
	// without a lock.
	rng := sim.NewRNG(opts.Seed)
	rng.SplitNamed("")
	s := &System{
		opts:      opts,
		cluster:   mgr,
		ps:        ps.New(16, fs),
		fs:        fs,
		rng:       rng,
		trainJobs: map[string]*TrainJob{},
		inferJobs: map[string]*InferenceJob{},
		datasets:  map[string]*Dataset{},
	}
	for _, opt := range extras {
		if err := opt(s); err != nil {
			return nil, fmt.Errorf("rafiki: %w", err)
		}
	}
	return s, nil
}

// nextID mints a job/dataset identifier.
func (s *System) nextID(prefix string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return fmt.Sprintf("%s-%04d", prefix, s.seq)
}

// Dataset summarizes an imported dataset.
type Dataset struct {
	Name     string
	Classes  []string
	NumTrain int
	NumValid int
}

// ImportImages loads a labeled image folder into Rafiki's distributed
// storage (the paper's rafiki.import_images: subfolder name = label).
// folders maps each class subfolder to its image count; 20% of each class
// is held out for validation.
func (s *System) ImportImages(name string, folders map[string]int) (*Dataset, error) {
	return s.importImages(name, folders, true)
}

// importImages is ImportImages with the journal switch: live calls append a
// dataset_import record before the import runs; replay passes record=false.
func (s *System) importImages(name string, folders map[string]int, record bool) (*Dataset, error) {
	if record {
		if err := s.journalAppend(kindDatasetImport, datasetImportRec{Name: name, Folders: folders}); err != nil {
			return nil, err
		}
	}
	d, err := store.ImportImages(s.fs, name, folders, 0.2)
	if err != nil {
		return nil, fmt.Errorf("rafiki: import: %w", err)
	}
	out := &Dataset{
		Name:     d.Name,
		Classes:  append([]string(nil), d.Classes...),
		NumTrain: len(d.Train),
		NumValid: len(d.Valid),
	}
	s.mu.Lock()
	s.datasets[name] = out
	s.mu.Unlock()
	return out, nil
}

// ListDatasets returns every imported dataset, ordered by name — the
// GET /api/v1/datasets resource listing.
func (s *System) ListDatasets() []*Dataset {
	s.mu.Lock()
	out := make([]*Dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		out = append(out, d)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Dataset returns a previously imported dataset.
func (s *System) Dataset(name string) (*Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("rafiki: %w: unknown dataset %q", ErrNotFound, name)
	}
	return d, nil
}

// Tasks lists the built-in tasks and their registered models (the Figure 2
// catalogue).
func (s *System) Tasks() map[string][]string {
	out := map[string][]string{}
	for _, t := range zoo.Tasks() {
		names, err := zoo.ModelsForTask(t)
		if err != nil {
			continue // registry invariant: Tasks() only returns known tasks
		}
		out[string(t)] = names
	}
	return out
}
