// Command fabricpower regenerates the paper's tables and figures, runs
// the ablation studies, and executes declarative scenario files.
//
// Usage:
//
//	fabricpower tech                      # §5.1 E_T derivation
//	fabricpower table1 [-cycles N] [-workers N]
//	fabricpower table2                    # Table 2 buffer energies
//	fabricpower fig9  [-sizes 4,8,16,32] [-slots N] [-csv file] [-workers N]
//	fabricpower fig10 [-load 0.5] [-csv file] [-workers N]
//	fabricpower crossover [-ports 32] [-perword] [-workers N]
//	fabricpower saturate [-ports 16] [-workers N]
//	fabricpower ablate [-study buffer|fcwire|queue]
//	fabricpower simulate -arch banyan -ports 16 -load 0.3
//	fabricpower dpm [-policies alwayson,idlegate,...] [-archs banyan] [-loads 0.1,0.3] [-workers N]
//	fabricpower net [-topos fattree,ring] [-nodes 4] [-routings shortest,consolidate]
//	                [-policies alwayson,idlegate] [-matrix uniform] [-traffic bursty]
//	                [-shards N] [-loads 0.1,0.3] [-workers N]
//	                [-mtbf slots -mttr slots] [-faults events.json]
//	fabricpower run <spec.json|-> [-workers N] [-csv file] [-json] [-timeout 30s]
//	fabricpower serve [-addr host:port] [-max-concurrent N] [-max-queue N]
//	fabricpower submit <spec.json|-> [-server URL] [-workers N]
//
// Every study subcommand accepts -print-scenario: instead of running,
// it emits the equivalent declarative spec as JSON. Feeding that spec
// back through `fabricpower run` reproduces the subcommand's output
// byte for byte:
//
//	fabricpower fig10 -print-scenario | fabricpower run -
//
// Sweep commands fan their operating points across -workers goroutines
// (default: all cores); results are bit-identical for any worker count.
// An interrupt (Ctrl-C) cancels a sweep between operating points.
//
// Every sweep subcommand and `run` also accept the observability flags
// [-v] [-telemetry out.jsonl [-tsample N]] [-pprof addr]
// [-trace out.trace.json] [-metrics out.json]: verbose per-point
// progress on stderr, an every-N-slots kernel time series as JSON
// lines, a live net/http/pprof + expvar endpoint, an execution profile
// of the run itself (shard phases, sweep-worker occupancy, cache
// waits) as Perfetto-loadable Chrome trace JSON, and a final process
// metrics snapshot. None of them touch stdout — reports stay
// byte-identical with or without them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: /debug/pprof handlers on the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"fabricpower/internal/core"
	"fabricpower/internal/exp"
	"fabricpower/internal/telemetry"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/study"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// SIGTERM (the orchestrator's stop signal) drains like Ctrl-C:
	// cancel the context, flush whatever completed, exit nonzero if
	// that truncated the output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, os.Args[1], os.Args[2:], os.Stdout); err != nil {
		if err == errUsage {
			usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// errUsage asks main for the usage text and exit code 2.
var errUsage = fmt.Errorf("usage")

// dispatch runs one subcommand, writing its report to w. Factored out
// of main so the tests can drive subcommands in-process and compare
// outputs byte for byte.
func dispatch(ctx context.Context, cmd string, args []string, w io.Writer) error {
	switch cmd {
	case "tech":
		return exp.TechReport(core.PaperModel(), w)
	case "table1":
		return runTable1(ctx, args, w)
	case "table2":
		return runTable2(w)
	case "fig9":
		return runFig9(ctx, args, w)
	case "fig10":
		return runFig10(ctx, args, w)
	case "crossover":
		return runCrossover(ctx, args, w)
	case "saturate":
		return runSaturate(ctx, args, w)
	case "ablate":
		return runAblate(args, w)
	case "simulate":
		return runSimulate(ctx, args, w)
	case "dpm":
		return runDPM(ctx, args, w)
	case "net":
		return runNet(ctx, args, w)
	case "run":
		return runSpecFile(ctx, args, w)
	case "serve":
		return runServe(ctx, args, w)
	case "submit":
		return runSubmit(ctx, args, w)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
	return errUsage
}

func usage() {
	fmt.Fprintln(os.Stderr, `fabricpower — switch-fabric power analysis (DAC 2002 reproduction)

commands:
  tech        technology parameters and the 87 fJ Thompson-grid derivation
  table1      node-switch bit-energy LUTs (gate-level recharacterization)
  table2      Banyan shared-SRAM buffer bit energies
  fig9        power vs throughput sweep (4 architectures × port sizes)
  fig10       power vs port count at fixed throughput
  crossover   cheapest architecture per load at one size
  saturate    input-buffered throughput ceiling
  ablate      ablation studies (-study buffer|fcwire|queue)
  simulate    one operating point with full breakdown
  dpm         power-management study: policy × architecture × load grid
              with static power attached (gating, sleep, DVFS savings)
  net         network-of-routers study: topology × routing × DPM policy
              × load grid, multi-hop flows over a backbone of full
              fabric+router nodes (-traffic routes any injection kind
              across hops, -shards parallelizes each network's kernel,
              -mtbf/-mttr/-faults inject deterministic link and router
              failures with per-flow loss and availability accounting)
  run         execute a declarative scenario/study spec (JSON file or
              '-' for stdin); -json emits per-point result records as
              JSON lines; -timeout bounds the study's wall clock;
              see the study package and README
  serve       long-running study server: POST /v1/studies accepts the
              same spec JSON and streams records/events/telemetry back
              as NDJSON while the sweep runs; requests share the
              process-wide model caches; -max-concurrent/-max-queue
              bound admission (429 + Retry-After past both); healthz,
              study listing, DELETE cancellation, expvar and pprof on
              the same mux
  submit      post a spec to a studyd server and stream its records to
              stdout, byte-compatible with "run -json"

study subcommands accept -print-scenario to emit their declarative spec
instead of running; "fabricpower <cmd> -print-scenario | fabricpower
run -" reproduces the subcommand's output byte for byte.

sweep commands accept -workers N (default 0 = all cores); results are
bit-identical for any worker count

sweep commands and run accept observability flags: -v (per-point
progress with worker and duration, on stderr), -telemetry out.jsonl
with -tsample N (every-N-slots power/utilization/latency time series),
-pprof addr (net/http/pprof + expvar server for the run's duration),
-trace out.trace.json (execution profile of the run itself — shard
compute/exchange/barrier phases, sweep-worker occupancy, cache waits —
as Chrome trace-event JSON, loadable at ui.perfetto.dev), -metrics
out.json (final process metrics registry snapshot on exit); none of
them change stdout`)
}

// sweepFlags bundles the flags every sweep subcommand shares, replacing
// the per-subcommand copies that used to drift.
type sweepFlags struct {
	slots         uint64
	seed          int64
	workers       int
	csvPath       string
	printScenario bool
	obs           obsFlags
}

// register installs the shared flags on fs. csv controls whether the
// subcommand supports CSV output.
func (s *sweepFlags) register(fs *flag.FlagSet, defaultSlots uint64, csv bool) {
	fs.Uint64Var(&s.slots, "slots", defaultSlots, "measured slots per point")
	fs.Int64Var(&s.seed, "seed", 1, "traffic seed")
	fs.IntVar(&s.workers, "workers", 0, "parallel sweep workers (0 = all cores)")
	fs.BoolVar(&s.printScenario, "print-scenario", false, "emit the equivalent scenario spec as JSON instead of running")
	if csv {
		fs.StringVar(&s.csvPath, "csv", "", "also write CSV to this file")
	}
	s.obs.register(fs)
}

func (s *sweepFlags) params() exp.SimParams {
	return exp.SimParams{MeasureSlots: s.slots, Seed: s.seed, Workers: s.workers}
}

// emit either prints the spec (with -print-scenario) or runs it and
// renders the report, honoring the CSV flag where supported.
func (s *sweepFlags) emit(ctx context.Context, spec study.Spec, w io.Writer) error {
	if s.printScenario {
		return spec.Encode(w)
	}
	opt, cleanup, err := s.obs.options(s.workers)
	if err != nil {
		return err
	}
	rerr := runAndRender(ctx, spec, opt, s.csvPath, w)
	if cerr := cleanup(); rerr == nil {
		rerr = cerr
	}
	return rerr
}

// obsFlags bundles the observability flags every sweep subcommand and
// `run` accept. All of them leave stdout untouched: progress goes to
// stderr, telemetry to its own file, profiles to an HTTP server —
// reports stay byte-identical whether or not the flags are set.
type obsFlags struct {
	pprofAddr   string
	telPath     string
	tsample     uint64
	verbose     bool
	tracePath   string
	metricsPath string
}

func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) while the command runs")
	fs.StringVar(&o.telPath, "telemetry", "", "write per-point kernel telemetry time series to this file as JSON lines")
	fs.Uint64Var(&o.tsample, "tsample", 64, "telemetry sample interval in slots")
	fs.BoolVar(&o.verbose, "v", false, "log per-point progress (worker, wall-clock duration) to stderr")
	fs.StringVar(&o.tracePath, "trace", "", "profile the run's execution (shard phases, sweep workers, cache waits) into this file as Chrome trace-event JSON; load it at ui.perfetto.dev")
	fs.StringVar(&o.metricsPath, "metrics", "", "write a final process-metrics registry snapshot (counters, gauges, histograms) to this file as JSON on exit")
}

// options assembles the grid-run options the observability flags ask
// for. The returned cleanup closes the telemetry file and stops the
// pprof server; call it exactly once after the run.
func (o *obsFlags) options(workers int) (study.RunOptions, func() error, error) {
	opt := study.RunOptions{Workers: workers}
	var closers []func() error
	cleanup := func() error {
		var first error
		for _, c := range closers {
			if err := c(); first == nil {
				first = err
			}
		}
		return first
	}
	if o.verbose {
		opt.OnPoint = func(i, total int, sc study.Scenario, _ study.Result, info study.PointInfo) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %-40s worker %d  %8.1f ms\n",
				i+1, total, sc.Label(), info.Worker,
				float64(info.Duration.Nanoseconds())/1e6)
		}
	}
	if o.pprofAddr != "" {
		addr, stop, err := servePprof(o.pprofAddr)
		if err != nil {
			return opt, cleanup, err
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof (metrics at /debug/vars)\n", addr)
		closers = append(closers, stop)
	}
	if o.telPath != "" {
		f, err := os.Create(o.telPath)
		if err != nil {
			cleanup()
			return opt, cleanup, err
		}
		opt.Telemetry = &study.TelemetryOptions{Out: f, Every: o.tsample}
		closers = append(closers, f.Close)
	}
	if o.tracePath != "" {
		rec := trace.NewRecorder(0)
		opt.Trace = rec
		path := o.tracePath
		closers = append(closers, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := rec.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	if o.metricsPath != "" {
		path := o.metricsPath
		closers = append(closers, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := telemetry.Default().WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	return opt, cleanup, nil
}

// servePprof stands up the diagnostics endpoint: net/http/pprof's
// handlers plus the process telemetry registry as expvar, on addr for
// the command's lifetime. It returns the bound address (addr may ask
// for port 0) and a func that stops the server.
func servePprof(addr string) (string, func() error, error) {
	telemetry.PublishExpvar()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("pprof: %w", err)
	}
	srv := &http.Server{Handler: http.DefaultServeMux}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

// runAndRender executes a spec, renders its report and writes the CSV
// side channel when requested — the shared tail of every study
// subcommand and of `run`.
func runAndRender(ctx context.Context, spec study.Spec, opt study.RunOptions, csvPath string, w io.Writer) error {
	rep, err := exp.RunSpecOpts(ctx, spec, opt)
	if err != nil {
		return err
	}
	if err := rep.Render(w); err != nil {
		return err
	}
	if csvPath != "" {
		c, ok := rep.(exp.CSVReport)
		if !ok {
			return fmt.Errorf("study kind %q has no CSV form", spec.Kind)
		}
		return withCSV(csvPath, c.CSV)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func simParams(slots uint64, seed int64, workers int) exp.SimParams {
	return exp.SimParams{MeasureSlots: slots, Seed: seed, Workers: workers}
}

func parseLoads(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseArchs(s string) ([]core.Architecture, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]core.Architecture, 0, len(parts))
	for _, p := range parts {
		a, err := core.ParseArchitecture(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func parseNames(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// modelSpec selects the declarative model for a subcommand.
func modelSpec(perWord bool) study.ModelSpec {
	if perWord {
		return study.PerWordModel()
	}
	return study.PaperModel()
}

func runTable1(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	cycles := fs.Int("cycles", 192, "measured cycles per input vector")
	width := fs.Int("width", 32, "datapath width in bits")
	seed := fs.Int64("seed", 1, "payload PRNG seed")
	workers := fs.Int("workers", 0, "parallel characterizations (0 = all cores)")
	printScenario := fs.Bool("print-scenario", false, "emit the equivalent scenario spec as JSON instead of running")
	var obs obsFlags
	obs.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := exp.Table1Spec(study.PaperModel(),
		exp.Table1Options{Cycles: *cycles, BusWidth: *width, Seed: *seed})
	if *printScenario {
		return spec.Encode(w)
	}
	opt, cleanup, err := obs.options(*workers)
	if err != nil {
		return err
	}
	rerr := runAndRender(ctx, spec, opt, "", w)
	if cerr := cleanup(); rerr == nil {
		rerr = cerr
	}
	return rerr
}

func runTable2(w io.Writer) error {
	t2, err := exp.RunTable2(core.PaperModel())
	if err != nil {
		return err
	}
	return t2.Render(w)
}

func withCSV(path string, csv func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return csv(f)
}

func runFig9(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	var sf sweepFlags
	sf.register(fs, 3000, true)
	sizesFlag := fs.String("sizes", "4,8,16,32", "comma-separated port counts")
	perWord := fs.Bool("perword", false, "per-word buffer accounting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	return sf.emit(ctx, exp.Fig9Spec(modelSpec(*perWord), sizes, nil, sf.params()), w)
}

func runFig10(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fig10", flag.ExitOnError)
	var sf sweepFlags
	sf.register(fs, 3000, true)
	sizesFlag := fs.String("sizes", "4,8,16,32", "comma-separated port counts")
	load := fs.Float64("load", 0.5, "offered load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	return sf.emit(ctx, exp.Fig10Spec(study.PaperModel(), sizes, *load, sf.params()), w)
}

func runCrossover(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crossover", flag.ExitOnError)
	var sf sweepFlags
	sf.register(fs, 2000, false)
	ports := fs.Int("ports", 32, "fabric size")
	perWord := fs.Bool("perword", false, "per-word buffer accounting (recovers the paper's 35% crossover)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return sf.emit(ctx, exp.CrossoverSpec(modelSpec(*perWord), *ports, nil, sf.params()), w)
}

func runSaturate(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("saturate", flag.ExitOnError)
	var sf sweepFlags
	sf.register(fs, 3000, false)
	ports := fs.Int("ports", 16, "fabric size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return sf.emit(ctx, exp.SaturationSpec(study.PaperModel(), *ports, sf.params()), w)
}

func runAblate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	studyName := fs.String("study", "buffer", "buffer | fcwire | queue")
	ports := fs.Int("ports", 16, "fabric size")
	load := fs.Float64("load", 0.5, "offered load")
	slots := fs.Uint64("slots", 2000, "measured slots per point")
	seed := fs.Int64("seed", 1, "traffic seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := simParams(*slots, *seed, 1)
	switch *studyName {
	case "buffer":
		a, err := exp.RunBufferAblation(study.PaperModel(), *ports, *load, p)
		if err != nil {
			return err
		}
		return a.Render(w)
	case "fcwire":
		a, err := exp.RunFCWireAblation(study.PaperModel(), *ports, *load, p)
		if err != nil {
			return err
		}
		return a.Render(w)
	case "queue":
		a, err := exp.RunQueueAblation(study.PaperModel(), *ports, p)
		if err != nil {
			return err
		}
		return a.Render(w)
	}
	return fmt.Errorf("unknown study %q", *studyName)
}

func runDPM(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dpm", flag.ExitOnError)
	var sf sweepFlags
	sf.register(fs, 3000, true)
	policiesFlag := fs.String("policies", "", "comma-separated policies (default: alwayson,buffersleep,composite,idlegate,loaddvfs)")
	archsFlag := fs.String("archs", "", "comma-separated architectures (default: all four)")
	ports := fs.Int("ports", 16, "fabric size")
	loadsFlag := fs.String("loads", "", "comma-separated offered loads (default 0.1,0.2,0.3,0.4,0.5)")
	perWord := fs.Bool("perword", false, "per-word buffer accounting")
	noStatic := fs.Bool("nostatic", false, "zero static power: no idle/transition energy on the ledger (policies still gate admission, and loaddvfs still V²-scales dynamic energy)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	archs, err := parseArchs(*archsFlag)
	if err != nil {
		return err
	}
	loads, err := parseLoads(*loadsFlag)
	if err != nil {
		return err
	}
	model := modelSpec(*perWord)
	model.Static = !*noStatic
	return sf.emit(ctx, exp.DPMSpec(model, parseNames(*policiesFlag), archs, *ports, loads, sf.params()), w)
}

func runNet(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("net", flag.ExitOnError)
	var sf sweepFlags
	sf.register(fs, 3000, true)
	toposFlag := fs.String("topos", "", "comma-separated topologies (default: chain,ring,star,fattree)")
	nodes := fs.Int("nodes", 4, "topology size (for fattree: leaf count)")
	routingsFlag := fs.String("routings", "", "comma-separated routing policies (default: shortest,consolidate)")
	policiesFlag := fs.String("policies", "", "comma-separated DPM policies (default: alwayson,idlegate)")
	matrix := fs.String("matrix", "uniform", "traffic matrix: uniform | gravity | hotspot")
	trafficKind := fs.String("traffic", "", "per-flow traffic kind: uniform (default) | bursty | packet | registered kinds")
	shards := fs.Int("shards", 0, "router shards per network (0/1 = single-threaded, -1 = one per core; results are identical for any value)")
	idleSkip := fs.String("idleskip", "", "idle-node fast path: on (default) | off (bit-identical either way; off bisects a suspected divergence)")
	archName := fs.String("arch", "crossbar", "per-node fabric architecture")
	loadsFlag := fs.String("loads", "", "comma-separated per-host offered loads (default 0.1,0.2,0.3,0.4,0.5)")
	noStatic := fs.Bool("nostatic", false, "zero static power: dynamic-only accounting (routing and gating still shape traffic)")
	mtbf := fs.Float64("mtbf", 0, "mean slots between link failures (0 = no generated faults; needs -mttr)")
	mttr := fs.Float64("mttr", 0, "mean slots to repair a failed link")
	faultsPath := fs.String("faults", "", "JSON file with a full failures block (study.FailureSpec); -mtbf/-mttr override its rates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := core.ParseArchitecture(*archName)
	if err != nil {
		return err
	}
	loads, err := parseLoads(*loadsFlag)
	if err != nil {
		return err
	}
	failures, err := loadFailures(*faultsPath, *mtbf, *mttr)
	if err != nil {
		return err
	}
	model := study.PaperModel()
	model.Static = !*noStatic
	spec := exp.NetSpec(model, exp.NetworkStudyOptions{
		Arch:       arch,
		Nodes:      *nodes,
		Topologies: parseNames(*toposFlag),
		Routings:   parseNames(*routingsFlag),
		Policies:   parseNames(*policiesFlag),
		Loads:      loads,
		Matrix:     *matrix,
		Traffic:    *trafficKind,
		Shards:     *shards,
		Failures:   failures,
		IdleSkip:   *idleSkip,
	}, sf.params())
	return sf.emit(ctx, spec, w)
}

// loadFailures assembles the net study's failures block from the
// -faults file and the -mtbf/-mttr shorthands. Nothing requested
// returns nil, keeping the study on its fault-free path.
func loadFailures(path string, mtbf, mttr float64) (*study.FailureSpec, error) {
	var f study.FailureSpec
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("net: reading -faults: %w", err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("net: decoding -faults %s: %w", path, err)
		}
	}
	if mtbf != 0 {
		f.MTBF = mtbf
	}
	if mttr != 0 {
		f.MTTR = mttr
	}
	if path == "" && f.MTBF == 0 && f.MTTR == 0 {
		return nil, nil
	}
	return &f, nil
}

func runSimulate(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	archName := fs.String("arch", "banyan", "crossbar | fullyconnected | banyan | batcherbanyan")
	ports := fs.Int("ports", 16, "fabric size")
	load := fs.Float64("load", 0.3, "offered load")
	slots := fs.Uint64("slots", 3000, "measured slots")
	seed := fs.Int64("seed", 1, "traffic seed")
	printScenario := fs.Bool("print-scenario", false, "emit the equivalent scenario spec as JSON instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arch, err := core.ParseArchitecture(*archName)
	if err != nil {
		return err
	}
	spec := exp.PointSpec(study.PaperModel(), arch, *ports, *load, simParams(*slots, *seed, 1))
	if *printScenario {
		return spec.Encode(w)
	}
	rep, err := exp.RunSpec(ctx, spec, 1)
	if err != nil {
		return err
	}
	return rep.Render(w)
}

// runSpecFile executes a declarative spec from a JSON file (or stdin
// with "-"): the `run` side of the -print-scenario round trip.
func runSpecFile(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = all cores)")
	csvPath := fs.String("csv", "", "also write CSV to this file (study kinds with a CSV form)")
	jsonOut := fs.Bool("json", false, "emit per-point study.Result records as JSON lines instead of the rendered report")
	timeout := fs.Duration("timeout", 0, "cancel the study after this long (0 = none); a timed-out -json run still flushes every completed record before exiting nonzero")
	var obs obsFlags
	obs.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag stops at the first positional, so accept flags on either
	// side of the spec path: re-parse whatever follows it.
	rest := fs.Args()
	if len(rest) > 1 {
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("run: want exactly one spec path (or '-' for stdin), got %d", 1+fs.NArg())
		}
		rest = rest[:1]
	}
	if len(rest) != 1 {
		return fmt.Errorf("run: want exactly one spec path (or '-' for stdin), got %d", len(rest))
	}
	var r io.Reader = os.Stdin
	if path := rest[0]; path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spec, err := study.DecodeSpec(r)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt, cleanup, err := obs.options(*workers)
	if err != nil {
		return err
	}
	rerr := func() error {
		if *jsonOut {
			if *csvPath != "" {
				return fmt.Errorf("run: -json and -csv are mutually exclusive")
			}
			if spec.Kind == "table1" {
				return fmt.Errorf("run: study kind table1 characterizes gates; it has no per-point result records")
			}
			// A cancelled or failed sweep still emits every completed
			// point's record (WriteResultRecords skips the rest) before
			// surfacing the error.
			gr, runErr := spec.Grid.Run(ctx, opt)
			if gr != nil {
				if err := study.WriteResultRecords(w, gr.Points); err != nil {
					return err
				}
			}
			return runErr
		}
		return runAndRender(ctx, spec, opt, *csvPath, w)
	}()
	if cerr := cleanup(); rerr == nil {
		rerr = cerr
	}
	return rerr
}
