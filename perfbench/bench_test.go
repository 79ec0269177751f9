package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smallConfig keeps every workload to a few operations.
func smallConfig() config {
	return config{
		Corpus:      corpusSize{Books: 60, Bids: 60, Publications: 60},
		SmallCorpus: corpusSize{Books: 12, Bids: 12, Publications: 12},
		SetupReps:   1,
		RegretRuns:  1,
		NestedRuns:  1,
	}
}

// benchmarkJSON reads the metric names the repository's BENCHMARK.json
// declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(r result) []string {
	var names []string
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func TestWorkloadsCorrect(t *testing.T) {
	endToEnd, _ := benchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			r, err := run(&out, w, 7, time.Millisecond, false, "", smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < int64(w.roundLen) {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
			}
			if got := metricNames(r); strings.Join(got, ",") != strings.Join(endToEnd, ",") {
				t.Errorf("metrics %v, BENCHMARK.json declares %v", got, endToEnd)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	_, perLayer := benchmarkJSON(t)
	for _, name := range []string{"adhoc-compile", "serve-http"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			var out bytes.Buffer
			spans := t.TempDir() + "/spans.jsonl"
			r, err := run(&out, w, 3, 2*time.Millisecond, true, spans, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", r.Correct, r.Failed, out.String())
			}
			if got := metricNames(r); strings.Join(got, ",") != strings.Join(perLayer, ",") {
				t.Errorf("metrics %v, BENCHMARK.json declares %v", got, perLayer)
			}
			if r.Metrics["nalquery.compile_ms"].Value <= 0 || r.Metrics["xquery.parse_ms"].Value <= 0 {
				t.Errorf("compile layers not timed: %+v", r.Metrics)
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("span file not written: %v", err)
			}
		})
	}
}

// reorderInst swaps the first two top-level elements of every output.
type reorderInst struct{ instance }

func (r reorderInst) op(ctx context.Context, i int, tr *tracer, out *bytes.Buffer) (string, outKind, error) {
	key, kind, err := r.instance.op(ctx, i, tr, out)
	s := out.String()
	out.Reset()
	out.WriteString(swapFirstTwo(s))
	return key, kind, err
}

func swapFirstTwo(s string) string {
	end := strings.IndexAny(s, " >")
	if !strings.HasPrefix(s, "<") || end < 0 {
		return s
	}
	open := s[:end]
	second := strings.Index(s[1:], open) + 1
	if second <= 0 {
		return s
	}
	third := strings.Index(s[second+1:], open) + second + 1
	if third <= second {
		third = len(s)
	}
	return s[second:third] + s[:second] + s[third:]
}

func TestReorderedOutputFailsCheck(t *testing.T) {
	env, err := newEnv(5, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := setupPaper(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	ck := newChecker()
	pr := runPhase(context.Background(), reorderInst{inst}, ck, nil, 0, len(paperIDs), 0)
	if pr.Failed != 0 {
		t.Fatalf("failed ops: %v", pr.Errors)
	}
	bad := ck.verify(inst.expect)
	if !strings.Contains(strings.Join(bad, "\n"), "q1: output differs from the oracle") {
		t.Fatalf("reordered q1 passed the check; report: %v", bad)
	}
}

func TestStagedCompileMatchesEngine(t *testing.T) {
	env, err := newEnv(5, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	b := newBase(env, tr)
	if err := b.loadCorpus(tr); err != nil {
		t.Fatal(err)
	}
	if err := b.shadow(tr); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{paperText("q4"), "unordered(" + paperText("q1") + ")"} {
		q, err := b.eng.Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := b.staged.compile(tr, text)
		if err != nil {
			t.Fatal(err)
		}
		if diff := samePlans(q, plans); diff != "" {
			t.Fatalf("staged compile disagrees: %s", diff)
		}
		unordered := 0
		for _, p := range plans {
			if strings.HasPrefix(p.Name, "unordered ") {
				unordered++
			}
		}
		if (unordered > 0) != strings.HasPrefix(text, "unordered(") {
			t.Fatalf("%d unordered plans for %.40q", unordered, text)
		}
		// A replica that drops a plan, or prices one differently, fails.
		if samePlans(q, plans[:len(plans)-1]) == "" {
			t.Fatal("a missing plan passed the check")
		}
		plans[0].Cost *= 2
		if samePlans(q, plans) == "" {
			t.Fatal("a different cost passed the check")
		}
	}
}

func TestSlicesAreWholeRounds(t *testing.T) {
	var pr phaseResult
	for i := 0; i < 1001; i++ {
		pr.Lat = append(pr.Lat, float64(i%7))
		pr.Done = append(pr.Done, time.Duration(i+1)*time.Millisecond)
	}
	sl := slices(pr, 7)
	total := 0
	for j, x := range sl {
		if j < len(sl)-1 && x.Ops%7 != 0 {
			t.Errorf("slice %d has %d operations, not whole rounds", j, x.Ops)
		}
		if x.Throughput != 1000 || x.P50 != 3 {
			t.Errorf("slice %d: throughput %v p50 %v, want 1000 and 3", j, x.Throughput, x.P50)
		}
		total += x.Ops
	}
	if len(sl) != maxSlices || total != len(pr.Lat) {
		t.Fatalf("%d slices covering %d operations, want %d covering %d", len(sl), total, maxSlices, len(pr.Lat))
	}
	pr.Lat, pr.Done = pr.Lat[:140], pr.Done[:140]
	if sl := slices(pr, 7); len(sl) != 1 || sl[0].Ops != 140 {
		t.Fatalf("a short phase gave %+v, want one slice of 140", sl)
	}
	if sl := slices(phaseResult{}, 7); sl != nil {
		t.Fatalf("an empty phase gave %+v", sl)
	}
}

func TestCorruptedRepeatFailsDigest(t *testing.T) {
	ck := newChecker()
	for _, out := range []string{"<a>1</a>", "<a>1</a>", "<a>2</a>"} {
		ck.add("k", outXML, []byte(out))
	}
	bad := ck.verify(func(string) (string, error) { return "<a>1</a>", nil })
	if len(bad) != 1 || !strings.Contains(bad[0], "differs from an earlier run") {
		t.Fatalf("want one digest mismatch, got %v", bad)
	}
}

func TestNDJSONMatchesXML(t *testing.T) {
	got, err := ndjsonXML([]byte(`{"kind":"markup","xml":"<a>"}` + "\n" +
		`{"kind":"value","type":"string","value":"x","xml":"x"}` + "\n" + `{"kind":"markup","xml":"</a>"}` + "\n"))
	if err != nil || string(got) != "<a>x</a>" {
		t.Fatalf("got %q, %v", got, err)
	}
	if _, err := ndjsonXML([]byte(`{"kind":"error","error":"boom"}`)); err == nil {
		t.Fatal("an NDJSON error line passed")
	}
}

// The oracle must stay independent of the engine.
func TestOracleImportsNoEnginePackage(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "oracle/oracle.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if strings.HasPrefix(path, "nalquery") {
			t.Errorf("oracle imports engine package %s", path)
		}
	}
}

func TestInputsDependOnSeedOnly(t *testing.T) {
	a := paperCorpus(9, smallConfig().Corpus)
	b := paperCorpus(9, smallConfig().Corpus)
	c := paperCorpus(10, smallConfig().Corpus)
	for i := range a {
		if !bytes.Equal(a[i].XML, b[i].XML) {
			t.Fatalf("%s differs between two generations with one seed", a[i].URI)
		}
	}
	if bytes.Equal(a[0].XML, c[0].XML) {
		t.Fatal("bib.xml does not depend on the seed")
	}
}
