// Command rpserved serves RP-growth mining over HTTP: it loads zero or
// more databases at startup and answers mining requests against them (or
// against uploaded datasets) until shut down, with admission control,
// result caching and metrics (see internal/serve and the README's Serving
// section).
//
// Usage:
//
//	rpserved -db shop=shop.tdb [-db web=web.tdb] [flags]
//	rpserved -dataset shop14:0.05:1 -listen 127.0.0.1:0
//	rpserved -listen 127.0.0.1:0   # registry-only: mine what clients upload
//
// Databases come from files (-db name=path, any on-disk format), are
// generated in-process from the paper's dataset simulators
// (-dataset name[:scale[:seed]]), or arrive over HTTP through the dataset
// registry — upload once, mine many times by fingerprint. The HTTP surface:
//
//	POST /v1/mine    {"db":"shop","per":360,"minPS":20,"minRec":2} → patterns
//	                 or {"dataset":"<fp>",...} to mine an uploaded dataset
//	POST /v1/shard/mine   one shard task of a scatter-gather mine,
//	                      addressed by content fingerprint; what a
//	                      coordinator (-peers) sends its peers
//	POST /v1/datasets     upload a database body (any format); it is parsed
//	                      in parallel, registered under its content
//	                      fingerprint, and the fingerprint returned.
//	                      Bounded by -max-upload; the registry evicts least
//	                      recently mined datasets past -registry-bytes /
//	                      -registry-entries
//	GET    /v1/datasets      list registered datasets (most recently used first)
//	DELETE /v1/datasets/{fp} evict one dataset
//	GET  /v1/stats   serving counters, cache state, runtime health,
//	                 database inventory
//	GET  /v1/fleet/stats  (coordinators only) this server's stats plus
//	                      every peer's /v1/stats, fetched in parallel;
//	                      unreachable peers degrade to an error string
//	GET  /metrics    Prometheus text exposition (counters, mining and
//	                 per-phase time histograms, serving and Go runtime
//	                 health gauges)
//	GET  /healthz    liveness; fails once draining begins
//	GET  /debug/requests        journal of recent and slowest requests with
//	                            per-phase breakdowns (HTML; ?format=json)
//	GET  /debug/requests/trace  one request's recorded span timeline as
//	                            Chrome trace-event JSON (?id=<request id>;
//	                            open in Perfetto, or check with rptrace)
//	GET  /debug/profiles        ring of periodic CPU/heap profile captures
//	                            (HTML; ?format=json), taken every
//	                            -profile-interval; /debug/profiles/{id}
//	                            downloads one capture for `go tool pprof`.
//	                            Mining samples carry pprof labels
//	                            (request_id, dataset_fp, phase), so a capture
//	                            attributes CPU to the requests it overlapped
//	GET  /debug/vars expvar, including the rpserved stats payload
//	GET  /debug/pprof/...  net/http/pprof, only with -pprof
//
// Every /v1/mine request emits one structured access-log line (log/slog,
// logfmt) on stderr with a unique request id, the database fingerprint, an
// options digest, the outcome (ok, cache-hit, shed, cancelled, ...), queue
// wait and mine time. Request bodies beyond -max-body are rejected with 413.
//
// With -peers, this server becomes a scatter-gather coordinator: each
// executed mine splits into -shards tasks POSTed to the peers'
// /v1/shard/mine endpoints (consistent-hash routed, retried with backoff,
// optionally hedged; see -shard-*) and the merged result is byte-identical
// to a single-box mine. Peers must serve the same database bytes — tasks
// pin the content fingerprint. Shard RPCs carry the coordinator's request
// id (X-Request-Id and the requestID body field), so every server's
// /debug/requests journal joins on it, and traced mines collect each
// peer's span timeline into one merged, clock-aligned flight record —
// the coordinator's /debug/requests/trace renders per-peer Perfetto
// lanes, and peer-reported phase times surface as
// rpserved_shard_peer_phase_seconds in /metrics.
//
// On SIGINT/SIGTERM the server stops accepting mines, drains the in-flight
// ones (bounded by -drain-timeout) and exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/recurpat/rp/internal/bench"
	"github.com/recurpat/rp/internal/cliio"
	"github.com/recurpat/rp/internal/obs"
	"github.com/recurpat/rp/internal/serve"
	"github.com/recurpat/rp/internal/tsdb"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rpserved:", err)
		os.Exit(1)
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func run(args []string, logDst io.Writer) error {
	logw := cliio.NewWriter(logDst)
	fs := flag.NewFlagSet("rpserved", flag.ContinueOnError)
	var dbSpecs, datasetSpecs multiFlag
	fs.Var(&dbSpecs, "db", "serve a database file as name=path (repeatable)")
	fs.Var(&datasetSpecs, "dataset", "serve a generated dataset as name[:scale[:seed]] (repeatable)")
	var peerSpecs multiFlag
	fs.Var(&peerSpecs, "peers", "scatter mines over these rpserved peer URLs (repeatable or comma-separated); this server becomes a coordinator")
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "address to listen on (:0 picks a free port)")
		maxConc      = fs.Int("max-concurrent", 0, "max simultaneous mines (0 = GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 0, "max queued mine requests (0 = 4x max-concurrent, <0 = none)")
		queueTimeout = fs.Duration("queue-timeout", 0, "max wait for a mining slot (0 = 1s, <0 = unbounded)")
		mineTimeout  = fs.Duration("mine-timeout", 0, "server-side limit per mining run (0 = none)")
		cacheSize    = fs.Int("cache-size", 0, "result cache entries (0 = 64, <0 = disabled)")
		maxPar       = fs.Int("max-parallelism", 0, "cap on per-request parallelism (0 = GOMAXPROCS)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight mines")
		maxBody      = fs.Int64("max-body", 0, "request body size limit in bytes (0 = 1 MiB, <0 = unlimited)")
		maxUpload    = fs.Int64("max-upload", 0, "dataset upload size limit in bytes (0 = 64 MiB, <0 = unlimited)")
		regBytes     = fs.Int64("registry-bytes", 0, "dataset registry memory budget in bytes (0 = 256 MiB, <0 = unbounded)")
		regEntries   = fs.Int("registry-entries", 0, "dataset registry entry cap (0 = 64, <0 = unbounded)")
		spillDir     = fs.String("spill-dir", "", "directory for upload spill files (default: the system temp dir)")
		journalSize  = fs.Int("journal-size", 0, "request journal entries behind /debug/requests (0 = 64, <0 = disabled)")
		slowThresh   = fs.Duration("slow-threshold", 0, "elapsed time that puts a request in the journal's slow bucket (0 = 500ms, <0 = none)")
		traceSpans   = fs.Int("trace-spans", 0, "span retention cap per recorded mine (0 = default, <0 = no timelines)")
		profInterval = fs.Duration("profile-interval", time.Minute, "continuous-profiling capture interval behind /debug/profiles (0 = disabled)")
		profRetain   = fs.Int("profile-retain", 0, "profile captures retained in the ring (0 = 16)")
		profDir      = fs.String("profile-dir", "", "also spill profile captures to this directory (default: memory only)")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		quiet        = fs.Bool("quiet", false, "suppress the per-request access log")
		shards       = fs.Int("shards", 0, "shard tasks per mine in -peers mode (0 = one per peer)")
		shardTimeout = fs.Duration("shard-timeout", 0, "per-shard-request timeout in -peers mode (0 = 30s)")
		shardRetries = fs.Int("shard-retries", 0, "retries per failed shard task (0 = 2, <0 = none)")
		shardBackoff = fs.Duration("shard-backoff", 0, "initial retry backoff, doubling per retry (0 = 100ms)")
		shardHedge   = fs.Duration("shard-hedge", 0, "hedge a duplicate shard request after this delay (0 = off)")
		shardPolicy  = fs.String("shard-policy", "", "partial-failure policy in -peers mode: fail-fast (default) or best-effort")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q (databases are given with -db/-dataset)", fs.Args())
	}

	dbs, err := loadDatabases(dbSpecs, datasetSpecs)
	if err != nil {
		return err
	}
	logger := obs.NopLogger()
	if !*quiet {
		logger = obs.NewLogger(logDst, slog.LevelInfo)
	}
	srv, err := serve.NewServer(serve.Config{
		MaxConcurrent:      *maxConc,
		MaxQueue:           *maxQueue,
		QueueTimeout:       *queueTimeout,
		MineTimeout:        *mineTimeout,
		CacheSize:          *cacheSize,
		MaxParallelism:     *maxPar,
		MaxBody:            *maxBody,
		MaxUpload:          *maxUpload,
		RegistryMaxBytes:   *regBytes,
		RegistryMaxEntries: *regEntries,
		SpillDir:           *spillDir,
		JournalSize:        *journalSize,
		SlowThreshold:      *slowThresh,
		TimelineSpans:      *traceSpans,
		ProfileInterval:    *profInterval,
		ProfileRetain:      *profRetain,
		ProfileDir:         *profDir,
		Logger:             logger,
		Pprof:              *pprofOn,
		Peers:              splitPeers(peerSpecs),
		Shards:             *shards,
		ShardTimeout:       *shardTimeout,
		ShardRetries:       *shardRetries,
		ShardBackoff:       *shardBackoff,
		ShardHedge:         *shardHedge,
		ShardPolicy:        *shardPolicy,
	}, dbs)
	if err != nil {
		return err
	}
	srv.PublishExpvar()
	for _, name := range sortedNames(dbs) {
		db := dbs[name]
		fmt.Fprintf(logw, "rpserved: serving %q: %d transactions, fingerprint %016x\n",
			name, db.Len(), db.Fingerprint())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "rpserved: listening on %s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain

	fmt.Fprintln(logw, "rpserved: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(logw, "rpserved: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close() // stop the profile recorder after the last request is done
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(logw, "rpserved: stopped")
	return logw.Err()
}

// Socket timeouts of the HTTP server. A client that opens a connection
// must finish its request headers within readHeaderTimeout, and a
// keep-alive connection is closed after idleTimeout without a request, so
// slow or idle clients cannot hold connections open indefinitely. Bodies
// and responses get no deadline here, because uploads stream large
// datasets and a mine may run long; -mine-timeout bounds the latter.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the server rpserved listens with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// splitPeers flattens repeatable -peers values, each possibly
// comma-separated, into one URL list.
func splitPeers(specs []string) []string {
	var peers []string
	for _, spec := range specs {
		for _, p := range strings.Split(spec, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	return peers
}

// loadDatabases assembles the served name → DB map from file and dataset
// specs, rejecting duplicate names across both kinds.
func loadDatabases(dbSpecs, datasetSpecs []string) (map[string]*tsdb.DB, error) {
	dbs := make(map[string]*tsdb.DB, len(dbSpecs)+len(datasetSpecs))
	for _, spec := range dbSpecs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("-db %q: want name=path", spec)
		}
		if _, dup := dbs[name]; dup {
			return nil, fmt.Errorf("duplicate database name %q", name)
		}
		db, err := readDBFile(path)
		if err != nil {
			return nil, fmt.Errorf("-db %s: %w", spec, err)
		}
		dbs[name] = db
	}
	for _, spec := range datasetSpecs {
		name, scale, seed, err := parseDatasetSpec(spec)
		if err != nil {
			return nil, err
		}
		if _, dup := dbs[name]; dup {
			return nil, fmt.Errorf("duplicate database name %q", name)
		}
		d, err := bench.Load(name, scale, seed)
		if err != nil {
			return nil, err
		}
		dbs[name] = d.DB
	}
	return dbs, nil
}

// readDBFile loads any on-disk format: text parses through the parallel
// ingest path, v2 mapped files build their view without a per-item decode
// loop. The database is heap-backed (no mmap lifetime to manage).
func readDBFile(path string) (*tsdb.DB, error) {
	return tsdb.ReadFile(path)
}

// parseDatasetSpec splits "name[:scale[:seed]]", defaulting to the paper's
// full scale and seed 1.
func parseDatasetSpec(spec string) (name string, scale float64, seed uint64, err error) {
	parts := strings.Split(spec, ":")
	name, scale, seed = parts[0], 1, 1
	if name == "" || len(parts) > 3 {
		return "", 0, 0, fmt.Errorf("-dataset %q: want name[:scale[:seed]]", spec)
	}
	if len(parts) > 1 {
		scale, err = strconv.ParseFloat(parts[1], 64)
		if err != nil || scale <= 0 {
			return "", 0, 0, fmt.Errorf("-dataset %q: bad scale %q", spec, parts[1])
		}
	}
	if len(parts) > 2 {
		seed, err = strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return "", 0, 0, fmt.Errorf("-dataset %q: bad seed %q", spec, parts[2])
		}
	}
	return name, scale, seed, nil
}

func sortedNames(dbs map[string]*tsdb.DB) []string {
	names := make([]string, 0, len(dbs))
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
