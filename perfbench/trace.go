package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The tracer records spans around the benchmark's own calls into the
// engine's layers; nothing inside the engine is instrumented. Spans are
// kept in memory and written out as JSON lines when the run ends. A nil
// *tracer is the untraced run: every method is then a no-op.

// phase tags where a span was recorded.
type phase uint8

const (
	phaseSetup phase = iota
	phaseTimed
	phaseRegret
)

func (p phase) String() string {
	return [...]string{"setup", "timed", "regret"}[p]
}

// span is one timed call. Parent is the index of the enclosing span or -1;
// Op is the workload operation it belongs to (-1 outside operations).
type span struct {
	Name       string
	Parent     int
	Op         int
	Phase      phase
	Start, End time.Duration // since the tracer's origin
}

type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	phase  phase
	op     int
	// counts are per-phase tallies recorded beside the spans (bytes
	// parsed, plan alternatives produced).
	counts [3]map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16), op: -1}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Phase: t.phase,
		Start: time.Since(t.origin)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
}

// record adds a closed span measured elsewhere (the HTTP handler's time,
// taken on the server goroutine) as a child of the innermost open span.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Phase: t.phase,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// count adds n to a named per-phase tally.
func (t *tracer) count(name string, n float64) {
	if t == nil {
		return
	}
	if t.counts[t.phase] == nil {
		t.counts[t.phase] = map[string]float64{}
	}
	t.counts[t.phase][name] += n
}

// layerTime is the self time of one layer's spans: the spans' durations
// minus the part covered by their child spans.
type layerTime struct {
	Calls int
	Self  time.Duration
}

// selfTimes sums self time per span name over the spans of one phase.
func (t *tracer) selfTimes(p phase) map[string]layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		if s.Phase != p {
			continue
		}
		lt := out[s.Name]
		lt.Calls++
		lt.Self += s.End - s.Start - child[i]
		out[s.Name] = lt
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Op      int     `json:"op"`
			Phase   string  `json:"phase"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{i, s.Parent, s.Op, s.Phase.String(), s.Name,
			float64(s.Start) / 1e3, float64(s.End) / 1e3}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
