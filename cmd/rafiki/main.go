// Command rafiki starts an in-process Rafiki deployment and serves its
// RESTful API (Section 3): dataset import, training-job submission and
// monitoring, model deployment and prediction queries.
//
// Usage:
//
//	rafiki -addr :8080 -nodes 3 -workers 3
//	rafiki -journal /var/lib/rafiki/journal   # durable control plane (also RAFIKI_JOURNAL)
//
// With -journal set, every control-plane mutation is hash-chain journaled
// before it takes effect and the process replays the journal on boot
// (System.Recover), so datasets, training jobs, and deployments survive a
// kill/restart; the ledger is inspectable at GET /api/v1/journal and audited
// by GET /api/v1/journal/verify.
//
// Then, per the paper's Section 8 example:
//
//	curl -X POST localhost:8080/api/v1/datasets \
//	     -d '{"name":"food","folders":{"pizza":200,"ramen":200}}'
//	curl -X POST localhost:8080/api/v1/train \
//	     -d '{"name":"t","data":"food","task":"ImageClassification","hyper":{"MaxTrials":20,"CoStudy":true}}'
//	curl localhost:8080/api/v1/train                 # list training jobs
//	curl localhost:8080/api/v1/train/train-0001
//
// Deployments are declarative resources: POST a DeploymentSpec — scheduling
// policy ("greedy" full-ensemble Algorithm 3 or "rl" actor-critic training
// online from Equation 7 rewards), latency SLO, queue cap, per-model replica
// bounds and an autoscale toggle — then GET it back and PUT changes against
// the live runtime:
//
//	curl -X POST localhost:8080/api/v1/inference \
//	     -d '{"train_job_id":"train-0001","policy":"greedy","replicas":{"min":2,"max":8},"autoscale":true}'
//	curl localhost:8080/api/v1/inference             # list deployments
//	curl localhost:8080/api/v1/inference/infer-0002  # spec + observed status
//	curl -X PUT localhost:8080/api/v1/inference/infer-0002 \
//	     -d '{"policy":"rl","slo_seconds":0.5,"replicas":{"min":2,"max":8}}'
//	curl -X POST localhost:8080/api/v1/query/infer-0002 -d '{"img":"my_pizza.jpg"}'
//	curl localhost:8080/api/v1/inference/infer-0002/stats
//	curl -X POST localhost:8080/api/v1/inference/infer-0002/scale -d '{"replicas":4}'
//	curl -X DELETE localhost:8080/api/v1/inference/infer-0002
//
// Queries run through the deployment's batching runtime: concurrent clients
// share batches under the spec's SLO deadline, observable on the stats
// endpoint as dispatches < served. Each model runs as one or more replica
// containers on the simulated cluster; a PUT reconcile swaps policy or
// bounds on the live deployment without dropping queued queries, the
// autoscaler moves replica pools with the queue's backpressure signals, and
// a full queue answers 429 with a Retry-After hint derived from the recent
// drain rate.
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"rafiki"
	"rafiki/internal/rest"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	nodes := flag.Int("nodes", 3, "simulated cluster nodes")
	workers := flag.Int("workers", 3, "tuning workers per training job")
	seed := flag.Int64("seed", 1, "random seed")
	slo := flag.Float64("slo", 0.25, "serving latency SLO tau in seconds")
	speedup := flag.Float64("speedup", 1, "serving clock speedup (1 = profiled GPU latencies in real time)")
	pprofOn := flag.Bool("pprof", os.Getenv("RAFIKI_PPROF") == "1",
		"expose /debug/pprof/ profiling endpoints (also RAFIKI_PPROF=1)")
	journalDir := flag.String("journal", os.Getenv("RAFIKI_JOURNAL"),
		"directory for the durable control-plane journal (also RAFIKI_JOURNAL); empty disables durability")
	flag.Parse()

	var extras []rafiki.Option
	if *journalDir != "" {
		extras = append(extras, rafiki.WithJournal(*journalDir))
	}
	sys, err := rafiki.New(rafiki.Options{
		Nodes: *nodes, Workers: *workers, Seed: *seed,
		ServeSLO: *slo, ServeSpeedup: *speedup,
	}, extras...)
	if err != nil {
		log.Fatalf("rafiki: %v", err)
	}
	if *journalDir != "" {
		rec, err := sys.Recover()
		if err != nil {
			log.Fatalf("rafiki: journal recovery: %v", err)
		}
		log.Printf("rafiki journal at %s: %d records replayed (%d applied, %d audit-only, %d warnings)",
			*journalDir, rec.Records, rec.Applied, rec.Audit, len(rec.Warnings))
		for _, w := range rec.Warnings {
			log.Printf("rafiki journal warning: %s", w)
		}
	}
	var opts []rest.ServerOption
	if *pprofOn {
		opts = append(opts, rest.WithPprof())
		log.Printf("rafiki profiling enabled at /debug/pprof/")
	}
	log.Printf("rafiki listening on %s (%d nodes, %d workers/job, serving slo %.3fs)", *addr, *nodes, *workers, *slo)
	if err := newHTTPServer(*addr, rest.NewServer(sys, opts...)).ListenAndServe(); err != nil {
		log.Fatalf("rafiki: %v", err)
	}
}

// Connection timeouts of the REST listener. A client that never finishes its
// request headers, or parks an idle keep-alive connection, is disconnected
// instead of pinning a connection and its goroutine for the life of the
// process.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the REST listener. It sets no WriteTimeout: a query
// may legitimately wait out its deployment's SLO before it answers.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
