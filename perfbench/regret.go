package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	nalquery "nalquery"
)

// The planner-regret pass of the traced run. For each paper query it times
// the default plan and every non-nested alternative, interleaved sample by
// sample, and checks that every alternative's output is byte-identical to
// the default plan's: the order-preserving equivalence the paper's
// unnesting must keep. On a small corpus it also times the nested plan, for
// the paper's unnested-versus-nested speedup.

type regretRow struct {
	ID            string
	Default       string
	DefaultMS     float64 // median run of the default plan
	Best          string
	BestMS        float64 // median run of the fastest non-nested plan
	NestedSpeedup float64 // nested median / default median, small corpus
	Plans         []string
	PlanMS        []float64 // median per plan, in Plans order
}

// timePlans runs each named plan samples times, rotating the order per
// sample, and returns each plan's median milliseconds. Every output must
// equal the first plan's.
func timePlans(ctx context.Context, tr *tracer, q *nalquery.Query, names []string, samples int) ([]float64, error) {
	lat := make([][]float64, len(names))
	var want []byte
	var buf bytes.Buffer
	for s := 0; s < samples; s++ {
		for k := range names {
			j := (k + s) % len(names)
			buf.Reset()
			sp := tr.begin("planner.run")
			t0 := time.Now()
			res, err := q.Run(ctx, nalquery.WithPlan(names[j]))
			if err == nil {
				err = res.WriteXML(&buf)
				if cerr := res.Close(); err == nil {
					err = cerr
				}
			}
			d := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("plan %q: %w", names[j], err)
			}
			lat[j] = append(lat[j], ms(d))
			// The first run is names[0]'s: it sets the reference output.
			if want == nil {
				want = bytes.Clone(buf.Bytes())
			} else if !bytes.Equal(buf.Bytes(), want) {
				return nil, fmt.Errorf("plan %q output (%d bytes) differs from plan %q (%d bytes)",
					names[j], buf.Len(), names[0], len(want))
			}
		}
	}
	med := make([]float64, len(names))
	for j := range names {
		med[j] = median(lat[j])
	}
	return med, nil
}

// regretPass measures every paper query on eng (the workload's corpus) and,
// for the nested speedup, on small (a small corpus).
func regretPass(ctx context.Context, tr *tracer, eng, small *nalquery.Engine, samples, nestedSamples int) ([]regretRow, error) {
	var rows []regretRow
	for _, id := range paperIDs {
		row := regretRow{ID: id}
		q, err := eng.Compile(paperText(id))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		def, err := q.Plan("")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		names := []string{def.Name}
		for _, p := range q.Plans() {
			// "nested" and "indexed nested" evaluate the nested algebraic
			// expression per outer tuple: they are the baseline, not a
			// candidate the regret compares against.
			if !strings.HasSuffix(p.Name, "nested") && p.Name != def.Name {
				names = append(names, p.Name)
			}
		}
		med, err := timePlans(ctx, tr, q, names, samples)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		row.Plans, row.PlanMS = names, med
		row.Default, row.DefaultMS = def.Name, med[0]
		row.Best, row.BestMS = names[0], med[0]
		for j, m := range med {
			if m < row.BestMS {
				row.Best, row.BestMS = names[j], m
			}
		}

		sq, err := small.Compile(paperText(id))
		if err != nil {
			return nil, fmt.Errorf("%s (small corpus): %w", id, err)
		}
		sdef, err := sq.Plan("")
		if err != nil {
			return nil, fmt.Errorf("%s (small corpus): %w", id, err)
		}
		smed, err := timePlans(ctx, tr, sq, []string{sdef.Name, "nested"}, nestedSamples)
		if err != nil {
			return nil, fmt.Errorf("%s (small corpus): %w", id, err)
		}
		row.NestedSpeedup = smed[1] / smed[0]
		rows = append(rows, row)
	}
	return rows, nil
}
