package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	nalquery "nalquery"
)

// instance is one set-up workload: an engine (and, for serve-http, a
// listening server) ready to run the workload's operation sequence.
type instance interface {
	// op runs operation i of the sequence, writing its output into out,
	// and returns the operation's answer key: operations with equal keys
	// must produce equal output. Under a tracer it records spans.
	op(ctx context.Context, i int, tr *tracer, out *bytes.Buffer) (key string, kind outKind, err error)
	// shadow runs the traced run's extra per-operation calls (the staged
	// compile of each compiled text, index builds of loaded documents)
	// after the operation's own span has closed.
	shadow(tr *tracer) error
	// expect returns the oracle's answer for a key.
	expect(key string) (string, error)
	// counters returns the engine-side counters accumulated so far.
	counters() opCounters
	engine() *nalquery.Engine
	close()
}

// outKind says how an operation's output is encoded.
type outKind uint8

const (
	outXML    outKind = iota // the query's serialized XML
	outNDJSON                // the server's ?format=json lines
)

// opCounters are per-run counters the workloads accumulate from
// Results.Stats and the engine's own counters.
type opCounters struct {
	Tuples, IndexScans, DocAccesses, MapTuples int64
	BytesOut                                   int64
	CacheHits, CacheMisses                     int64
	AnalyzerRuns                               int64
	Queued, Shed                               int64 // serve-http admission
}

func (c opCounters) sub(o opCounters) opCounters {
	return opCounters{
		Tuples: c.Tuples - o.Tuples, IndexScans: c.IndexScans - o.IndexScans,
		DocAccesses: c.DocAccesses - o.DocAccesses, MapTuples: c.MapTuples - o.MapTuples,
		BytesOut:  c.BytesOut - o.BytesOut,
		CacheHits: c.CacheHits - o.CacheHits, CacheMisses: c.CacheMisses - o.CacheMisses,
		AnalyzerRuns: c.AnalyzerRuns - o.AnalyzerRuns,
		Queued:       c.Queued, Shed: c.Shed - o.Shed,
	}
}

// checker verifies outputs. The first output of each answer key and
// encoding is kept and compared with the oracle after the measured phase;
// later outputs must match its digest. Between operations it only hashes,
// so the harness allocates almost nothing per operation.
type checker struct {
	digests  map[checkKey][32]byte
	first    map[checkKey][]byte
	order    []checkKey
	mismatch []checkKey
}

type checkKey struct {
	answer string
	kind   outKind
}

func newChecker() *checker {
	return &checker{digests: map[checkKey][32]byte{}, first: map[checkKey][]byte{}}
}

// add records one output.
func (c *checker) add(answer string, kind outKind, out []byte) {
	k := checkKey{answer, kind}
	sum := sha256.Sum256(out)
	if d, ok := c.digests[k]; ok {
		if d != sum {
			c.mismatch = append(c.mismatch, k)
		}
		return
	}
	c.digests[k] = sum
	c.first[k] = bytes.Clone(out)
	c.order = append(c.order, k)
}

// verify compares the first output of every key with the oracle and
// returns a description of each disagreement.
func (c *checker) verify(expect func(string) (string, error)) []string {
	var bad []string
	for _, k := range c.mismatch {
		bad = append(bad, fmt.Sprintf("%s: output differs from an earlier run of the same operation", k.answer))
	}
	for _, k := range c.order {
		got := c.first[k]
		if k.kind == outNDJSON {
			x, err := ndjsonXML(got)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", k.answer, err))
				continue
			}
			got = x
		}
		want, err := expect(k.answer)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: oracle: %v", k.answer, err))
			continue
		}
		if string(got) != want {
			bad = append(bad, fmt.Sprintf("%s: output differs from the oracle (got %d bytes %q, want %d bytes %q)",
				k.answer, len(got), clip(string(got)), len(want), clip(want)))
		}
	}
	return bad
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

// ndjsonXML concatenates the xml fields of the server's NDJSON lines, which
// the server guarantees equal the XML serialization byte for byte.
func ndjsonXML(b []byte) ([]byte, error) {
	var out []byte
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var item struct {
			Kind  string `json:"kind"`
			XML   string `json:"xml"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &item); err != nil {
			return nil, fmt.Errorf("ndjson line %q: %w", clip(string(line)), err)
		}
		if item.Kind == "error" {
			return nil, fmt.Errorf("ndjson error line: %s", item.Error)
		}
		out = append(out, item.XML...)
	}
	return out, nil
}

// phaseResult is what one measured phase yields.
type phaseResult struct {
	Lat       []float64       // per-operation wall-clock time, ms
	Done      []time.Duration // when each operation and its check ended, since the phase began
	Attempted int64
	Failed    int64
	Wall      time.Duration // the phase, wall clock
	CPU       time.Duration // the phase, process CPU time (a diagnostic)
	AllocB    uint64
	GCCycles  uint64
	PeakLive  uint64
	Counters  opCounters
	NextOp    int
	Errors    []string
}

// readRuntime reads the runtime counters a phase reports.
func readRuntime() (alloc, cycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runPhase runs whole rounds of roundLen operations, starting at operation
// from, until the phase has lasted dur of wall-clock time (at least one
// round). Latency is taken around each operation only, on the wall clock;
// checking happens between operations but inside the phase's wall time.
func runPhase(ctx context.Context, inst instance, ck *checker, tr *tracer, from, roundLen int, dur time.Duration) phaseResult {
	var pr phaseResult
	var out bytes.Buffer
	liveHeap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() {
		metrics.Read(liveHeap)
		pr.PeakLive = max(pr.PeakLive, liveHeap[0].Value.Uint64())
	}
	c0 := inst.counters()
	runtime.GC()
	a0, g0 := readRuntime()
	live()
	start, cpu0 := time.Now(), cpuClock()
	i := from
	for {
		for j := 0; j < roundLen; j++ {
			out.Reset()
			if tr != nil {
				tr.op = i
			}
			sp := tr.begin("op")
			t0 := time.Now()
			key, kind, err := inst.op(ctx, i, tr, &out)
			lat := time.Since(t0)
			tr.end(sp)
			if tr != nil {
				tr.op = -1
			}
			pr.Attempted++
			i++
			if err != nil {
				pr.Failed++
				pr.Errors = append(pr.Errors, fmt.Sprintf("op %d: %v", i-1, err))
				continue
			}
			pr.Lat = append(pr.Lat, ms(lat))
			ck.add(key, kind, out.Bytes())
			if err := inst.shadow(tr); err != nil {
				pr.Errors = append(pr.Errors, fmt.Sprintf("op %d shadow: %v", i-1, err))
			}
			live()
			pr.Done = append(pr.Done, time.Since(start))
		}
		if time.Since(start) >= dur {
			break
		}
	}
	pr.Wall, pr.CPU = time.Since(start), cpuClock()-cpu0
	a1, g1 := readRuntime()
	pr.AllocB, pr.GCCycles = a1-a0, g1-g0
	pr.Counters = inst.counters().sub(c0)
	pr.NextOp = i
	return pr
}

// Slicing. A run's measured phase is cut into consecutive slices of whole
// rounds, and the end-to-end figures are medians over the slices. On a
// shared machine the load of other guests comes in bursts of seconds; a
// burst then moves one or two slices instead of the run's figure.
const (
	maxSlices   = 10
	minSliceOps = 100 // so a slice's p90 has at least ten samples beyond it
)

// slice is one slice's figures.
type slice struct {
	Ops        int
	Throughput float64 // operations per wall-clock second
	P50, P90   float64 // ms
}

// slices cuts a phase's completed operations into at most maxSlices
// slices of whole rounds, each of at least minSliceOps operations (one
// slice when the phase is shorter, none when no operation completed).
func slices(pr phaseResult, roundLen int) []slice {
	n := len(pr.Lat)
	if n == 0 {
		return nil
	}
	rounds := n / roundLen
	k := max(1, min(maxSlices, n/minSliceOps, rounds))
	out := make([]slice, 0, k)
	var t0 time.Duration
	from := 0
	for j := 1; j <= k; j++ {
		to := j * rounds / k * roundLen
		if j == k {
			to = n
		}
		lat := pr.Lat[from:to]
		t1 := pr.Done[to-1]
		out = append(out, slice{Ops: to - from, Throughput: float64(to-from) / (t1 - t0).Seconds(),
			P50: quantile(lat, 0.5), P90: quantile(lat, 0.9)})
		from, t0 = to, t1
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (q in (0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
