package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	nalquery "nalquery"
	"nalquery/internal/dom"
	"nalquery/internal/server"
	"nalquery/perfbench/oracle"
)

// benchEnv holds a run's generated inputs: made from the seed before any
// set-up, and excluded from every timing.
type benchEnv struct {
	seed   int64
	cfg    config
	corpus []doc
	oracle *oracle.Corpus
}

func newEnv(seed int64, cfg config) (*benchEnv, error) {
	env := &benchEnv{seed: seed, cfg: cfg, corpus: paperCorpus(seed, cfg.Corpus)}
	m := make(map[string][]byte, len(env.corpus))
	for _, d := range env.corpus {
		m[d.URI] = d.XML
	}
	o, err := oracle.New(m)
	if err != nil {
		return nil, err
	}
	env.oracle = o
	return env, nil
}

// workload names one operation mix.
type workload struct {
	name     string
	roundLen int
	setup    func(env *benchEnv, tr *tracer) (instance, error)
	// procs, when above 0, is the GOMAXPROCS the run uses.
	procs int
}

// serve-http runs with one processor. Its client and server goroutines
// hand each request back and forth; with two processors every hand-off
// wakes the other thread, and how fast the hypervisor runs that vCPU again
// moved throughput by a quarter between runs. On one processor the hand-off
// stays on one thread. The other workloads keep every CPU: they allocate
// about a megabyte per operation and lean on the concurrent collector.
var workloads = []workload{
	{"paper-prepared", len(paperIDs), setupPaper, 0},
	{"adhoc-compile", len(adhocRound), setupAdhoc, 0},
	{"serve-http", len(serveOps), setupServe, 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineBase is the engine plus the calls every workload shares. Under a
// tracer a load is split at the engine's public boundary into dom.Parse
// then Engine.LoadDocument, which is what LoadXML does; every other call is
// the one the untraced run makes. Compile is timed outside the operations,
// in shadow.
type engineBase struct {
	env    *benchEnv
	eng    *nalquery.Engine
	staged *stagedCompiler // traced runs only
	c      opCounters

	pendingDocs  []*dom.Document
	pendingTexts []string
}

func newBase(env *benchEnv, tr *tracer) *engineBase {
	b := &engineBase{env: env, eng: nalquery.NewEngine()}
	if tr != nil {
		b.staged = newStagedCompiler(b.eng.Catalog())
	}
	return b
}

func (b *engineBase) load(tr *tracer, d doc) error {
	if tr == nil {
		return b.eng.LoadXML(d.URI, bytes.NewReader(d.XML))
	}
	sp := tr.begin("dom.parse")
	parsed, err := dom.Parse(bytes.NewReader(d.XML), d.URI)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.count("dom.parse_bytes", float64(len(d.XML)))
	sp = tr.begin("nalquery.load")
	b.eng.LoadDocument(parsed)
	tr.end(sp)
	b.pendingDocs = append(b.pendingDocs, parsed)
	return nil
}

// compiled notes a text the engine compiled, for shadow.
func (b *engineBase) compiled(tr *tracer, text string) {
	if tr != nil {
		b.pendingTexts = append(b.pendingTexts, text)
	}
}

func (b *engineBase) prepare(tr *tracer, text string) (*nalquery.Prepared, error) {
	b.compiled(tr, text)
	return b.eng.Prepare(text)
}

// query runs a text query through RunText and serializes its result into
// out.
func (b *engineBase) query(ctx context.Context, tr *tracer, text string, out *bytes.Buffer) error {
	b.compiled(tr, text)
	sp := tr.begin("nalquery.run_text")
	res, err := b.eng.RunText(ctx, text)
	tr.end(sp)
	if err != nil {
		return err
	}
	return b.drain(tr, res, out)
}

// runPrepared runs a prepared statement and serializes its result.
func (b *engineBase) runPrepared(ctx context.Context, tr *tracer, p *nalquery.Prepared, out *bytes.Buffer, opts ...nalquery.RunOption) error {
	sp := tr.begin("nalquery.run_start")
	res, err := p.Run(ctx, opts...)
	tr.end(sp)
	if err != nil {
		return err
	}
	return b.drain(tr, res, out)
}

func (b *engineBase) drain(tr *tracer, res *nalquery.Results, out *bytes.Buffer) error {
	n := out.Len()
	sp := tr.begin("results.writexml")
	err := res.WriteXML(out)
	tr.end(sp)
	st := res.Stats()
	if cerr := res.Close(); err == nil {
		err = cerr
	}
	b.c.Tuples += st.Tuples
	b.c.DocAccesses += st.DocAccesses
	b.c.MapTuples += st.MapTuples
	b.c.BytesOut += int64(out.Len() - n)
	return err
}

// shadow builds the staged compiler's indexes for documents loaded since
// the last call, and compiles every text compiled since twice: with
// Engine.Compile, timed as nalquery.compile, and stage by stage. Both
// compile against the snapshot the operation used, and must agree on the
// plans.
func (b *engineBase) shadow(tr *tracer) error {
	if tr == nil {
		return nil
	}
	for _, d := range b.pendingDocs {
		b.staged.load(tr, d)
	}
	b.pendingDocs = b.pendingDocs[:0]
	defer func() { b.pendingTexts = b.pendingTexts[:0] }()
	for _, text := range b.pendingTexts {
		sp := tr.begin("nalquery.compile")
		q, err := b.eng.Compile(text)
		tr.end(sp)
		if err != nil {
			return err
		}
		plans, err := b.staged.compile(tr, text)
		if err != nil {
			return err
		}
		if diff := samePlans(q, plans); diff != "" {
			return fmt.Errorf("staged compile disagrees with Engine.Compile: %s", diff)
		}
	}
	return nil
}

func (b *engineBase) counters() opCounters {
	c := b.c
	pc := b.eng.PlanCacheStats()
	c.CacheHits, c.CacheMisses = pc.Hits, pc.Misses
	c.AnalyzerRuns = b.eng.AnalyzerRuns()
	c.IndexScans = b.eng.IndexHits()
	return c
}

func (b *engineBase) engine() *nalquery.Engine { return b.eng }

func (b *engineBase) close() {}

// loadCorpus loads the paper corpus.
func (b *engineBase) loadCorpus(tr *tracer) error {
	for _, d := range b.env.corpus {
		if err := b.load(tr, d); err != nil {
			return fmt.Errorf("load %s: %w", d.URI, err)
		}
	}
	return nil
}

// --- paper-prepared ---

// paperInst runs the paper's seven queries, each prepared once at set-up,
// round-robin on the default plan.
type paperInst struct {
	*engineBase
	prep []*nalquery.Prepared
}

func setupPaper(env *benchEnv, tr *tracer) (instance, error) {
	w := &paperInst{engineBase: newBase(env, tr)}
	if err := w.loadCorpus(tr); err != nil {
		return nil, err
	}
	for _, id := range paperIDs {
		p, err := w.prepare(tr, paperText(id))
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", id, err)
		}
		w.prep = append(w.prep, p)
	}
	return w, w.shadow(tr)
}

func (w *paperInst) op(ctx context.Context, i int, tr *tracer, out *bytes.Buffer) (string, outKind, error) {
	k := i % len(paperIDs)
	return paperIDs[k], outXML, w.runPrepared(ctx, tr, w.prep[k], out)
}

func (w *paperInst) expect(key string) (string, error) { return paperExpect(w.env.oracle, key) }

// --- adhoc-compile ---

// adhocInst sends a distinct query text per operation through RunText: a
// template with a seeded literal, tagged with the operation number, so
// every call misses the plan cache.
type adhocInst struct{ *engineBase }

func setupAdhoc(env *benchEnv, tr *tracer) (instance, error) {
	w := &adhocInst{newBase(env, tr)}
	if err := w.loadCorpus(tr); err != nil {
		return nil, err
	}
	return w, w.shadow(tr)
}

// adhocRound is the order of templates in one round. The templates differ
// in cost (title < threshold < author < year); with each once, the median
// would fall in the gap between the second and third, where a small shift
// of either moves it a lot. Running the author template twice puts the
// median inside its distribution and the p90 inside the year template's.
var adhocRound = []int{0, 1, 2, 3, 1}

func adhocOp(seed int64, i, books int) (key, text string) {
	t := templates[adhocRound[i%len(adhocRound)]]
	lit := t.lit(unit(seed, i), books)
	return templateKey(t, lit), fmt.Sprintf("(: ad-hoc operation %d :)\n", i) + t.text(lit)
}

func (w *adhocInst) op(ctx context.Context, i int, tr *tracer, out *bytes.Buffer) (string, outKind, error) {
	key, text := adhocOp(w.env.seed, i, w.env.cfg.Corpus.Books)
	return key, outXML, w.query(ctx, tr, text, out)
}

func (w *adhocInst) expect(key string) (string, error) { return expectTemplate(w.env.oracle, key) }

// --- serve-http ---

// serveOp is one request of the serving round.
type serveOp struct {
	lookup int  // index into lookups
	query  int  // index into the fixed /query set, or -1 for POST /prepared
	json   bool // ?format=json instead of XML
}

// serveOps alternates prepared runs with cached ad-hoc texts, both
// statements, and XML with NDJSON responses.
var serveOps = []serveOp{
	{lookup: 0, query: -1},
	{lookup: 0, query: 0},
	{lookup: 1, query: -1, json: true},
	{lookup: 1, query: 1, json: true},
	{lookup: 0, query: -1, json: true},
	{lookup: 0, query: 2},
	{lookup: 1, query: -1},
	{lookup: 1, query: 3, json: true},
}

// serveQueryTitles places the fixed /query set's titles across the corpus.
var serveQueryTitles = []float64{0.17, 0.42, 0.63, 0.91}

type serveInst struct {
	*engineBase
	srv     *server.Server
	hs      *http.Server
	served  chan error
	client  *http.Client
	base    string
	texts   []string // the fixed /query set
	keys    []string // their answer keys
	handler *timedHandler
}

// timedHandler wraps the server's handler in the traced run and hands the
// time spent in ServeHTTP back to the client goroutine.
type timedHandler struct {
	h    http.Handler
	on   atomic.Bool
	last chan [2]time.Time // one per traced request
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	// Deferred, so the client is answered even when the handler aborts the
	// response by panicking.
	defer func() { t.last <- [2]time.Time{start, time.Now()} }()
	t.h.ServeHTTP(w, r)
}

func setupServe(env *benchEnv, tr *tracer) (instance, error) {
	w := &serveInst{engineBase: newBase(env, tr)}
	if err := w.loadCorpus(tr); err != nil {
		return nil, err
	}
	w.srv = server.New(w.eng, server.Config{}, log.New(io.Discard, "", 0))
	for _, l := range lookups {
		w.compiled(tr, l.prepared())
		if err := w.srv.RegisterPrepared(l.name, l.prepared()); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", l.name, err)
		}
	}
	// The fixed ad-hoc set: the same statements with literal titles.
	for j, f := range serveQueryTitles {
		l := lookups[serveOps[2*j+1].lookup]
		title := bookTitle(int(f * float64(env.cfg.Corpus.Books)))
		w.texts = append(w.texts, l.literal(title))
		w.keys = append(w.keys, l.name+"/"+title)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = w.srv.Handler()
	if tr != nil {
		w.handler = &timedHandler{h: h, last: make(chan [2]time.Time, 1)}
		h = w.handler
	}
	w.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	return w, w.shadow(tr)
}

func (w *serveInst) request(i int) (key, target, body string, kind outKind) {
	o := serveOps[i%len(serveOps)]
	q := url.Values{}
	if o.json {
		q.Set("format", "json")
		kind = outNDJSON
	}
	if o.query >= 0 {
		return w.keys[o.query], w.base + "/query?" + q.Encode(), w.texts[o.query], kind
	}
	l := lookups[o.lookup]
	title := bookTitle(int(unit(w.env.seed, i) * float64(w.env.cfg.Corpus.Books)))
	q.Add("var", "title="+title)
	return l.name + "/" + title, w.base + "/prepared/" + l.name + "?" + q.Encode(), "", kind
}

func (w *serveInst) op(ctx context.Context, i int, tr *tracer, out *bytes.Buffer) (string, outKind, error) {
	key, target, body, kind := w.request(i)
	if w.handler != nil {
		w.handler.on.Store(tr != nil)
	}
	sp := tr.begin("http.request")
	err := w.post(ctx, target, body, out)
	if tr != nil && w.handler != nil {
		t := <-w.handler.last
		tr.record("server.handler", t[0], t[1])
	}
	tr.end(sp)
	w.c.BytesOut += int64(out.Len())
	return key, kind, err
}

func (w *serveInst) post(ctx context.Context, target, body string, out *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	_, err = out.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %s", target, resp.StatusCode, clip(out.String()))
	}
	return err
}

func (w *serveInst) expect(key string) (string, error) { return expectLookup(w.env.oracle, key) }

func (w *serveInst) counters() opCounters {
	c := w.engineBase.counters()
	adm := w.srv.Stat().Admission
	c.Queued, c.Shed = adm.Queued, adm.Shed
	return c
}

func (w *serveInst) close() {
	w.client.CloseIdleConnections()
	w.hs.Close()
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve-http: server ended: %v", err)
	}
}
