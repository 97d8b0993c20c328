// Command serve exposes the evaluation service as an HTTP JSON API:
// the closed-form waste, optimal-period and risk models on /v1/waste,
// /v1/optimum and /v1/risk, the cached parallel Monte-Carlo sweep
// engine on /v1/sweep (NDJSON streaming with "Accept:
// application/x-ndjson"), and the durable, resumable job subsystem on
// /v1/jobs — sweeps submitted as jobs survive server restarts and
// resume mid-sweep from their last checkpoint, bitwise identically.
//
// The distributed fabric turns one serve process into a coordinator
// over a fleet: with -coordinator and -workers, /v1/sweep (and every
// job) is sharded across the worker URLs by consistent hashing and
// merged back byte-identically; with -worker-of, the process runs as a
// plain evaluation worker (no local job store). See README.md for curl
// examples and DESIGN.md, "API request lifecycle", "Job subsystem" and
// "Distributed fabric", for the internals.
//
// Usage:
//
//	serve [-addr :8080] [-cache 4096] [-sim-workers 0]
//	      [-maxgrid 4096] [-maxruns 256]
//	      [-jobs-dir jobs] [-max-concurrent-jobs 2] [-max-queued-jobs 0]
//	      [-checkpoint-every 16]
//	      [-coordinator] [-workers http://h1:8080,http://h2:8080]
//	      [-worker-of coordinator-name] [-lease 15s]
//	      [-peers http://h1:8080,http://h2:8080,http://h3:8080]
//	      [-self http://h1:8080] [-standby] [-replicas 0]
//	      [-heartbeat 1s] [-lease-ttl 4s]
//	      [-traces traces/]
//	      [-chaos "seed=42;comms:drop=0.1"]
//
// -peers turns the node into one member of an HA fleet: every durable
// job mutation is replicated over /v1/replica/* and only acked on a
// write quorum (-replicas peer acks; default a cluster majority), so
// any peer can resume any job with no shared disk. Exactly one node
// starts without -standby and leads at term 1; when its lease
// (-lease-ttl, renewed every -heartbeat) expires, the standbys promote
// in -peers order, adopt the replicated jobs, and resume byte-
// identically. A deposed leader is fenced by its stale term and halts
// instead of split-brain appending. See DESIGN.md, "Failure model".
//
// -traces registers every *.json failure trace in the directory (see
// cmd/trace for importing real failure logs); sweeps replay one with
// "scenario": {"trace": "<basename>", "backend": "detailed"}.
//
// -chaos arms the injectable fault plane (development and chaos
// drills only): a seeded, reproducible plan of drop / delay / corrupt
// / hang / partition faults over the coordinator's worker transport
// and the job store's append path. See internal/chaos and DESIGN.md,
// "Failure model".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/failure"
	"repro/internal/jobs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 4096, "sweep-point LRU cache capacity (negative disables)")
	simWorkers := flag.Int("sim-workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	maxGrid := flag.Int("maxgrid", 4096, "maximum sweep grid points per request")
	maxRuns := flag.Int("maxruns", 256, "maximum Monte-Carlo runs per sweep point")
	jobsDir := flag.String("jobs-dir", "jobs", "durable job directory for /v1/jobs (empty disables the job subsystem)")
	maxJobs := flag.Int("max-concurrent-jobs", 2, "jobs executing simultaneously")
	maxQueued := flag.Int("max-queued-jobs", 0, "pending-job queue bound; new submissions over it get 503 + Retry-After (0 = unbounded)")
	ckptEvery := flag.Int("checkpoint-every", 16, "completed points per durable job checkpoint")
	tracesDir := flag.String("traces", "", "directory of failure-trace JSON files to register for scenario.trace replay")
	chaosPlan := flag.String("chaos", "", `fault-injection plan, e.g. "seed=42;comms:drop=0.1;store:corrupt=0.01" (dev only)`)
	coordinator := flag.Bool("coordinator", false, "run as fabric coordinator: shard sweeps across -workers")
	workerURLs := flag.String("workers", "", "comma-separated worker base URLs for -coordinator mode")
	workerOf := flag.String("worker-of", "", "run as a fabric worker for the named coordinator (disables the local job store)")
	lease := flag.Duration("lease", 15*time.Second, "coordinator per-dispatch heartbeat budget before re-dispatch")
	peers := flag.String("peers", "", "comma-separated fleet node URLs (including this node) enabling HA job replication")
	selfURL := flag.String("self", "", "this node's URL as it appears in -peers")
	standby := flag.Bool("standby", false, "join the HA fleet as a standby (exactly one node omits this)")
	replicas := flag.Int("replicas", 0, "peer acks a replicated write needs before the leader acks it (0 = cluster majority)")
	heartbeat := flag.Duration("heartbeat", time.Second, "HA leader lease-renewal period")
	leaseTTL := flag.Duration("lease-ttl", 4*time.Second, "HA leader lease TTL before standbys promote")
	flag.Parse()

	if *coordinator && *workerOf != "" {
		fmt.Fprintln(os.Stderr, "serve: -coordinator and -worker-of are mutually exclusive")
		os.Exit(1)
	}
	if *coordinator && *workerURLs == "" {
		fmt.Fprintln(os.Stderr, "serve: -coordinator needs -workers URL,URL,...")
		os.Exit(1)
	}
	if *peers != "" {
		if *selfURL == "" {
			fmt.Fprintln(os.Stderr, "serve: -peers needs -self URL")
			os.Exit(1)
		}
		if *workerOf != "" {
			fmt.Fprintln(os.Stderr, "serve: -peers and -worker-of are mutually exclusive")
			os.Exit(1)
		}
		if *jobsDir == "" {
			fmt.Fprintln(os.Stderr, "serve: -peers needs a -jobs-dir (replication is of the durable job store)")
			os.Exit(1)
		}
	}
	if *workerOf != "" {
		// A worker evaluates ranges on behalf of its coordinator; jobs
		// are durable on the coordinator, so a local store would only
		// invite split-brain submissions.
		*jobsDir = ""
	}

	svc := api.NewService(api.Options{
		CacheSize:     *cache,
		Workers:       *simWorkers,
		MaxGridPoints: *maxGrid,
		MaxRuns:       *maxRuns,
	})
	if *tracesDir != "" {
		// Traces register under their file basename; sweeps replay them
		// by that name and key results by content digest, so every node
		// of a fabric must load the same files (ids disagree loudly
		// otherwise — a mismatched digest changes the point keys).
		if err := loadTraces(svc, *tracesDir); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}

	// The fault plane: off (nil injector, zero cost) unless -chaos arms
	// a plan. Every injected fault is logged with the plan seed so a
	// chaos drill replays exactly.
	var injector *chaos.Injector
	if *chaosPlan != "" {
		plan, err := chaos.ParsePlan(*chaosPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if injector, err = chaos.New(plan); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if injector != nil {
			injector.Log = log.Printf
			log.Printf("serve: CHAOS ARMED: %s", plan)
		}
	}

	// Seeds for the operationally random (never byte-visible) sources:
	// an armed chaos plan pins them to its seed so drills replay; the
	// zero default lets each component draw from the clock (and log it).
	var chaosSeed uint64
	if injector != nil {
		chaosSeed = injector.Plan().Seed
	}

	var coord *fabric.Coordinator
	if *coordinator {
		var client *http.Client
		if injector != nil {
			client = &http.Client{Transport: &chaos.Transport{Injector: injector, Next: fabric.DefaultTransport()}}
		}
		var err error
		coord, err = fabric.New(fabric.Config{
			Service:    svc,
			Workers:    splitURLs(*workerURLs),
			Client:     client,
			Lease:      *lease,
			JitterSeed: chaosSeed,
			Logf:       log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}

	// newManager builds the execution plane over the job store: the
	// coordinator executor when sharding across a fleet, the local
	// sweep engine otherwise. In HA mode it runs once per leadership
	// term (repl carries the term's replication sink); in single-node
	// mode once at startup with no sink.
	newManager := func(repl jobs.ReplicationSink) (*jobs.Manager, error) {
		exec := svc.JobExecutor()
		if coord != nil {
			// Coordinator jobs execute across the fleet; checkpoints
			// stay in this process's store, so a coordinator restart
			// resumes a distributed job from its last durable point.
			exec = coord.Executor()
		}
		mgr, err := jobs.NewManager(jobs.Config{
			Dir:               *jobsDir,
			MaxConcurrent:     *maxJobs,
			MaxQueued:         *maxQueued,
			CheckpointEvery:   *ckptEvery,
			Exec:              exec,
			Normalize:         svc.NormalizeJobRequest,
			ResultsAppendHook: injector.AppendHook(),
			Replicate:         repl,
		})
		if err != nil {
			return nil, err
		}
		metas := mgr.List()
		resumed := 0
		for _, meta := range metas {
			if !meta.State.Terminal() {
				resumed++
			}
		}
		log.Printf("serve: job store %s (%d jobs, %d to run)", *jobsDir, len(metas), resumed)
		return mgr, nil
	}

	var mgr *jobs.Manager
	var ha *fabric.HA
	switch {
	case *peers != "":
		store, err := jobs.NewStore(*jobsDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		replClient := http.DefaultClient
		if injector != nil {
			replClient = &http.Client{Transport: &chaos.Transport{
				Injector:        injector,
				Site:            chaos.SiteReplica,
				CorruptRequests: true,
			}}
		}
		ha, err = fabric.NewHA(fabric.HAConfig{
			Self:           *selfURL,
			Peers:          splitURLs(*peers),
			Store:          store,
			Client:         replClient,
			HeartbeatEvery: *heartbeat,
			LeaseTTL:       *leaseTTL,
			Quorum:         *replicas,
			Leader:         !*standby,
			Logf:           log.Printf,
			OnPromote: func(term uint64, repl *fabric.Replicator) (func(), error) {
				m, err := newManager(repl)
				if err != nil {
					return nil, err
				}
				svc.AttachJobs(m)
				log.Printf("serve: leading at term %d; job manager attached", term)
				return func() {
					svc.DetachJobs()
					m.Close()
					log.Printf("serve: fenced at term %d; job manager detached", term)
				}, nil
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if err := ha.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		role := "standby"
		if !*standby {
			role = "leader"
		}
		log.Printf("serve: HA %s %s in fleet %s (heartbeat %s, lease-ttl %s)",
			role, *selfURL, *peers, *heartbeat, *leaseTTL)
	case *jobsDir != "":
		var err error
		if mgr, err = newManager(nil); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		svc.AttachJobs(mgr)
	}

	handler := api.NewServer(svc)
	if coord != nil {
		handler = coord.Handler(handler)
		log.Printf("serve: coordinator over %d workers (lease %s)", len(splitURLs(*workerURLs)), *lease)
	}
	if ha != nil {
		handler = ha.Handler(handler)
	}
	if *workerOf != "" {
		log.Printf("serve: fabric worker for %s", *workerOf)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	log.Printf("serve: listening on %s (cache=%d sim-workers=%d)", *addr, *cache, *simWorkers)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if ha != nil {
		ha.Close()
		if m := svc.Jobs(); m != nil {
			mgr = m // this node was leading: flush its manager too
		}
	}
	if mgr != nil {
		// Flush running jobs' progress; they stay "running" on disk and
		// resume from their last durable point on the next start.
		mgr.Close()
	}
	log.Printf("serve: shut down")
}

// loadTraces registers every *.json file in dir as a failure trace
// named after its basename (sans extension). A file that does not
// parse or validate fails startup: a half-loaded registry would let
// sweeps silently miss the trace they name.
func loadTraces(svc *api.Service, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		tr, err := failure.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("trace %s: %w", path, err)
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		id, err := svc.RegisterTrace(name, tr)
		if err != nil {
			return fmt.Errorf("trace %s: %w", path, err)
		}
		log.Printf("serve: trace %s (%d nodes, %d events, coverage %.0fs)",
			id, tr.Nodes, len(tr.Events), tr.Coverage())
		loaded++
	}
	log.Printf("serve: %d traces registered from %s", loaded, dir)
	return nil
}

// splitURLs parses the -workers flag, tolerating blanks and spaces.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// logRequests logs one line per request with its duration.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
