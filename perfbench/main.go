// Command perfbench is the repository's end-to-end benchmark. It builds the
// engine from source, drives it from one process with one closed-loop
// client, checks every answer against an independent oracle, and prints
// one JSON result line. See README.md.
//
//	perfbench --workload paper-prepared --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	nalquery "nalquery"
)

// config sizes a run; defaultConfig is what the command uses, the tests
// shrink it.
type config struct {
	Corpus      corpusSize
	SmallCorpus corpusSize    // the nested-plan reference of the regret pass
	SetupReps   int           // set-ups per run; setup_s is their median
	Warmup      time.Duration // untimed whole rounds before measuring
	RegretRuns  int           // samples per plan in the regret pass
	NestedRuns  int           // samples per plan on the small corpus
}

func defaultConfig() config {
	return config{
		Corpus:      corpusSize{Books: 1000, Bids: 1000, Publications: 1000},
		SmallCorpus: corpusSize{Books: 100, Bids: 100, Publications: 100},
		SetupReps:   9,
		Warmup:      time.Second,
		RegretRuns:  7,
		NestedRuns:  3,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-prepared, adhoc-compile or serve-http")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "traced run: span file (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := run(out, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spans, defaultConfig())
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and writes its report lines to out.
func run(out io.Writer, w workload, seed int64, dur time.Duration, traced bool, spansPath string, cfg config) (result, error) {
	ctx := context.Background()
	printEnv(out, w.name, seed, dur, traced)
	env, err := newEnv(seed, cfg)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# input: %d documents, %d bytes\n", len(env.corpus), corpusBytes(env.corpus))
	if traced {
		return runTraced(ctx, out, w, env, dur, spansPath)
	}

	// Set-up, several times: setup_s is the median.
	var inst instance
	var setups []float64
	for r := 0; r < cfg.SetupReps; r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(env, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(out, "# setup_s samples=%d %s\n", len(setups), fmtList(setups))

	ck := newChecker()
	warm := runPhase(ctx, inst, ck, nil, 0, w.roundLen, cfg.Warmup)
	pr := runPhase(ctx, inst, ck, nil, warm.NextOp, w.roundLen, dur)
	bad := append(append(warm.Errors, pr.Errors...), ck.verify(inst.expect)...)
	reportPhase(out, "warmup", warm)
	reportPhase(out, "timed", pr)
	reportBad(out, bad)

	ops := float64(len(pr.Lat))
	sl := slices(pr, w.roundLen)
	thr, p50, p90 := make([]float64, len(sl)), make([]float64, len(sl)), make([]float64, len(sl))
	for j, x := range sl {
		thr[j], p50[j], p90[j] = x.Throughput, x.P50, x.P90
	}
	sizes := make([]string, len(sl))
	for j, x := range sl {
		sizes[j] = strconv.Itoa(x.Ops)
	}
	fmt.Fprintf(out, "# slices=%d operations [%s]; throughput %s ops/s; p50 %s ms; p90 %s ms\n",
		len(sl), strings.Join(sizes, " "), fmtList(thr), fmtList(p50), fmtList(p90))
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_ops_s": {median(thr), "ops/s"},
		"latency_p50_ms":   {median(p50), "ms"},
		"latency_p90_ms":   {median(p90), "ms"},
		"alloc_kb_per_op":  {float64(pr.AllocB) / 1024 / ops, "KiB"},
		"peak_heap_mb":     {float64(pr.PeakLive) / (1 << 20), "MiB"},
	}
	return result{
		Correct:   len(bad) == 0,
		Attempted: warm.Attempted + pr.Attempted,
		Failed:    warm.Failed + pr.Failed,
		Metrics:   m,
	}, nil
}

// runTraced is the traced run: one traced set-up, an untraced and a traced
// half of the measured phase (their difference is the tracing overhead),
// the regret pass, then per-layer metrics from the spans.
func runTraced(ctx context.Context, out io.Writer, w workload, env *benchEnv, dur time.Duration, spansPath string) (result, error) {
	cfg := env.cfg
	tr := newTracer()
	tr.phase = phaseSetup
	inst, err := w.setup(env, tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	ck := newChecker()
	warm := runPhase(ctx, inst, ck, nil, 0, w.roundLen, cfg.Warmup)
	base := runPhase(ctx, inst, ck, nil, warm.NextOp, w.roundLen, dur/2)
	tr.phase = phaseTimed
	traced := runPhase(ctx, inst, ck, tr, base.NextOp, w.roundLen, dur/2)

	tr.phase = phaseRegret
	small := nalquery.NewEngine()
	for _, d := range paperCorpus(env.seed, cfg.SmallCorpus) {
		if err := small.LoadXML(d.URI, strings.NewReader(string(d.XML))); err != nil {
			return result{}, err
		}
	}
	rows, rerr := regretPass(ctx, tr, inst.engine(), small, cfg.RegretRuns, cfg.NestedRuns)

	bad := append(append(append(warm.Errors, base.Errors...), traced.Errors...), ck.verify(inst.expect)...)
	if rerr != nil {
		bad = append(bad, "regret pass: "+rerr.Error())
	}
	reportPhase(out, "warmup", warm)
	reportPhase(out, "untraced", base)
	reportPhase(out, "traced", traced)
	for _, r := range rows {
		fmt.Fprintf(out, "# regret %-7s default %q %.3f ms; fastest %q %.3f ms; nested/default at small size %.1fx\n",
			r.ID, r.Default, r.DefaultMS, r.Best, r.BestMS, r.NestedSpeedup)
		for j, p := range r.Plans {
			fmt.Fprintf(out, "#   plan %-24q %.3f ms\n", p, r.PlanMS[j])
		}
	}
	reportBad(out, bad)

	m := layerMetrics(tr, inst.engine(), base, traced, rows)
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(out, "# layer %-32s %12.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	if err := tr.writeJSONL(spansPath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# spans: %d written to %s\n", len(tr.spans), spansPath)
	return result{
		Correct:   len(bad) == 0,
		Attempted: warm.Attempted + base.Attempted + traced.Attempted,
		Failed:    warm.Failed + base.Failed + traced.Failed,
		Metrics:   m,
	}, nil
}

// stageSpans are the staged compile's layers, in compileState order.
var stageSpans = []string{"xquery.parse", "normalize.normalize", "translate.translate",
	"core.alternatives", "cost.model_build", "cost.plan", "core.substitute_indexes"}

// layerMetrics derives the per-layer metrics. A layer's time is its mean
// self time per call (compile stages: per compile) in the traced half of
// the measured phase, or in the traced set-up when the workload's
// operations never reach the layer. Counts come from the untraced half.
func layerMetrics(tr *tracer, eng *nalquery.Engine, base, traced phaseResult, rows []regretRow) map[string]metric {
	timed, setup := tr.selfTimes(phaseTimed), tr.selfTimes(phaseSetup)
	source := func(name string) (map[string]layerTime, phase) {
		if timed[name].Calls > 0 {
			return timed, phaseTimed
		}
		return setup, phaseSetup
	}
	perCall := func(name string) float64 {
		src, _ := source(name)
		lt := src[name]
		if lt.Calls == 0 {
			return 0
		}
		return ms(lt.Self) / float64(lt.Calls)
	}
	// Compile stages are divided by the number of staged compiles (one
	// xquery.parse each) in the same phase.
	compSrc, compPhase := source("xquery.parse")
	compiles := float64(compSrc["xquery.parse"].Calls)
	perCompile := func(name string) float64 {
		if compiles == 0 {
			return 0
		}
		return ms(compSrc[name].Self) / compiles
	}

	m := map[string]metric{}
	stageSum := 0.0
	for _, s := range stageSpans {
		v := perCompile(s)
		stageSum += v
		m[s+"_ms"] = metric{v, "ms"}
	}
	m["core.alternatives_count"] = metric{safeDiv(tr.counts[compPhase]["core.alternatives"], compiles), "count"}
	compile := perCall("nalquery.compile")
	m["nalquery.compile_ms"] = metric{compile, "ms"}
	m["nalquery.compile_residual_ms"] = metric{compile - stageSum, "ms"}
	m["nalquery.run_start_ms"] = metric{perCall("nalquery.run_start"), "ms"}
	m["nalquery.run_text_ms"] = metric{perCall("nalquery.run_text"), "ms"}
	m["results.writexml_ms"] = metric{perCall("results.writexml"), "ms"}
	m["nalquery.load_ms"] = metric{perCall("nalquery.load"), "ms"}
	m["dom.parse_ms"] = metric{perCall("dom.parse"), "ms"}
	parseSrc, parsePhase := source("dom.parse")
	m["dom.parse_mb_s"] = metric{safeDiv(tr.counts[parsePhase]["dom.parse_bytes"]/1e6, parseSrc["dom.parse"].Self.Seconds()), "MB/s"}
	m["index.build_ms"] = metric{perCall("index.build"), "ms"}
	m["server.handler_ms"] = metric{perCall("server.handler"), "ms"}
	m["http.transport_ms"] = metric{perCall("http.request"), "ms"}

	ops := float64(len(base.Lat))
	c := base.Counters
	m["plancache.hit_ratio"] = metric{safeDiv(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses)), "ratio"}
	m["plancache.lookups_per_op"] = metric{safeDiv(float64(c.CacheHits+c.CacheMisses), ops), "count"}
	m["engine.analyzer_runs"] = metric{safeDiv(float64(c.AnalyzerRuns), ops), "count"}
	m["results.bytes_out"] = metric{safeDiv(float64(c.BytesOut), ops), "bytes"}
	m["algebra.tuples_per_op"] = metric{safeDiv(float64(c.Tuples), ops), "count"}
	m["algebra.index_scans_per_op"] = metric{safeDiv(float64(c.IndexScans), ops), "count"}
	m["algebra.doc_accesses_per_op"] = metric{safeDiv(float64(c.DocAccesses), ops), "count"}
	m["algebra.map_tuples"] = metric{safeDiv(float64(c.MapTuples), ops), "count"}
	m["admission.queued"] = metric{float64(traced.Counters.Queued), "count"}
	m["admission.shed"] = metric{float64(base.Counters.Shed + traced.Counters.Shed), "count"}
	m["runtime.gc_cycles_per_kop"] = metric{safeDiv(float64(base.GCCycles)*1000, ops), "count"}
	m["trace.overhead_pct"] = metric{(median(traced.Lat)/median(base.Lat) - 1) * 100, "%"}

	var paths, keyBytes float64
	for _, uri := range eng.DocumentURIs() {
		if ds, ok := eng.DocumentStats(uri); ok {
			paths += float64(len(ds.Paths))
			for _, p := range ds.Paths {
				keyBytes += float64(len(p.Path))
			}
		}
	}
	m["stats.paths"] = metric{paths, "count"}
	m["stats.path_key_bytes"] = metric{keyBytes, "bytes"}

	for _, id := range paperIDs {
		var r regretRow
		for _, row := range rows {
			if row.ID == id {
				r = row
			}
		}
		m["query."+id+"_ms"] = metric{r.DefaultMS, "ms"}
		m["planner.best_ms."+id] = metric{r.BestMS, "ms"}
		m["planner.regret."+id] = metric{safeDiv(r.DefaultMS, r.BestMS), "ratio"}
		m["planner.nested_speedup."+id] = metric{r.NestedSpeedup, "ratio"}
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// reportPhase prints a phase's operation counts, its latency sample counts
// and, as a diagnostic, the process CPU time it used: CPU per operation, and
// CPUs busy per wall-clock second, which drops when the machine gives the
// process less CPU than it asks for.
func reportPhase(out io.Writer, name string, pr phaseResult) {
	n := len(pr.Lat)
	fmt.Fprintf(out, "# %s: attempted=%d failed=%d wall=%.3fs samples=%d p50=%.4fms p90=%.4fms (n=%d, %d beyond p90) throughput=%.2f ops/s; cpu=%.3fs (%.4f ms/op, %.2f CPUs)\n",
		name, pr.Attempted, pr.Failed, pr.Wall.Seconds(), n,
		quantile(pr.Lat, 0.5), quantile(pr.Lat, 0.9), n, n-int(math.Ceil(0.9*float64(n))),
		float64(n)/pr.Wall.Seconds(), pr.CPU.Seconds(), ms(pr.CPU)/float64(n), pr.CPU.Seconds()/pr.Wall.Seconds())
}

func reportBad(out io.Writer, bad []string) {
	for i, b := range bad {
		if i == 20 {
			fmt.Fprintf(out, "# CHECK FAILED: ... %d more\n", len(bad)-i)
			break
		}
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", b)
	}
}

// printEnv prints the environment block: toolchain, parallelism, CPU and
// the commit the run script found (PERFBENCH_COMMIT).
func printEnv(out io.Writer, workload string, seed int64, dur time.Duration, traced bool) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", workload, seed, dur.Seconds(), traced)
	fmt.Fprintf(out, "# env go=%s gomaxprocs=%d numcpu=%d os=%s/%s cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, cpuModel(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
