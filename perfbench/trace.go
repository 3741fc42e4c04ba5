package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"adept/internal/core"
	"adept/internal/model"
	"adept/internal/obs"
	"adept/internal/platform"
	"adept/internal/service"
	"adept/internal/workload"
)

// The traced run times, for every request of its traced half, the calls
// into each layer's public functions on the same inputs the handler gets,
// apart from the handler call itself: the layers are called from here, in
// the order the request path runs them, and the handler is then called
// with "trace":true so the phases the daemon reports become child spans of
// the handler span. Nothing inside the program is instrumented.

// span is one timed layer call. Spans of one request share Req; Parent is
// the ID of the enclosing span (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	srv *service.Server
	// pool is a second worker pool of the server's sizes: the traced
	// layer calls measure queue wait on it without touching the server's.
	pool *service.Pool
	// scratch receives the registry-put layer calls, so the server's
	// versions move only with the client's own PUTs.
	scratch *service.Registry
	t0      time.Time
	spans   []span
	// values holds per-call samples that are not times (bytes, counts).
	values map[string][]float64
	mem    runtime.MemStats
	// pathSums holds, per traced plan request, the sum of the layer times
	// on the path the handler took (hit or miss); handler holds the
	// handler times of the same requests.
	pathSums, handler []time.Duration
	encoded           bytes.Buffer
}

func newTracer(srv *service.Server) (*tracer, error) {
	pool, err := service.NewPool(runtime.GOMAXPROCS(0), 64)
	if err != nil {
		return nil, fmt.Errorf("start trace pool: %w", err)
	}
	return &tracer{
		srv:     srv,
		pool:    pool,
		scratch: service.NewRegistry(),
		t0:      time.Now(),
		values:  make(map[string][]float64),
	}, nil
}

func (t *tracer) close() { t.pool.Close() }

// heapAllocated reads the exact cumulative heap allocation; it stops the
// world, which the traced run can afford outside its spans.
func (t *tracer) heapAllocated() uint64 { return heapAllocated(&t.mem) }

// record appends a finished span and returns its ID.
func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return len(t.spans)
}

// open starts a span whose children are recorded before it ends.
func (t *tracer) open(name string, parent, req int) int {
	now := time.Now()
	return t.record(name, parent, req, now, now)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// timed runs fn as one span and returns its duration.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, parent, req, start, end)
	return end.Sub(start)
}

// timedAlloc is timed plus the heap bytes fn allocated, kept as allocName.
func (t *tracer) timedAlloc(name, allocName string, parent, req int, fn func()) time.Duration {
	a0 := t.heapAllocated()
	d := t.timed(name, parent, req, fn)
	t.value(allocName, float64(t.heapAllocated()-a0))
	return d
}

func (t *tracer) value(name string, v float64) { t.values[name] = append(t.values[name], v) }

// tracedPlan is client.plan in the traced half: the layer calls, then the
// handler with "trace":true, then the response encoding.
func (c *client) tracedPlan(pr service.PlanRequest) (service.PlanResponse, bool) {
	t, req := c.tr, c.reqSeq
	c.reqSeq++
	var resp service.PlanResponse
	body, err := json.Marshal(pr)
	if err != nil {
		c.violation("encode plan request: %v", err)
		return resp, false
	}
	root := t.open("request", 0, req)
	defer t.end(root)
	path, err := t.planLayers(req, root, body)
	if err != nil {
		c.violation("traced layers: %v", err)
	}
	pr.Trace = true
	if body, err = json.Marshal(pr); err != nil {
		c.violation("encode plan request: %v", err)
		return resp, false
	}
	code, t0, elapsed := c.call(http.MethodPost, "/v1/plan", body, "")
	handler := t.record("service.handler", root, req, t0, t0.Add(elapsed))
	resp, ok := c.finishPlan(code, elapsed, body, &resp)
	if !ok {
		return resp, false
	}
	if resp.Trace == nil {
		c.violation("a plan request with \"trace\":true was answered without a trace")
	} else {
		t.handlerPhases(handler, req, t0, resp.Trace.Phases)
	}
	resp.Trace = nil
	sum := path.hit + t.encode(req, root, &resp)
	if !resp.Cached {
		sum += path.miss
	}
	t.pathSums = append(t.pathSums, sum)
	t.handler = append(t.handler, elapsed)
	return resp, true
}

// layerPath sums the layer times a request spends on a cache hit, and the
// ones a miss adds.
type layerPath struct{ hit, miss time.Duration }

// planLayers calls each layer of the plan request path on the request
// body, in the order the handler runs them.
func (t *tracer) planLayers(req, root int, body []byte) (layerPath, error) {
	var (
		lp  layerPath
		pr  service.PlanRequest
		err error
	)
	lp.hit += t.timed("service.decode", root, req, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&pr)
	})
	if err != nil {
		return lp, fmt.Errorf("decode: %w", err)
	}
	var (
		p  *platform.Platform
		ok bool
	)
	lp.hit += t.timed("service.registry_get", root, req, func() { p, ok = t.srv.Registry().Get(pr.PlatformName) })
	if !ok {
		return lp, fmt.Errorf("platform %q not registered", pr.PlatformName)
	}
	creq := core.Request{Platform: p, Costs: costs, Wapp: wappOf(pr), Demand: workload.Demand(pr.Demand)}
	lp.hit += t.timedAlloc("core.validate", "core.validate_alloc_bytes", root, req, func() { err = creq.Validate() })
	if err != nil {
		return lp, err
	}
	t.timed("platform.validate", root, req, func() { err = p.Validate() })
	if err != nil {
		return lp, err
	}
	var key service.CacheKey
	lp.hit += t.timedAlloc("service.key", "service.key_alloc_bytes", root, req, func() { key, err = service.KeyFor("heuristic", creq) })
	if err != nil {
		return lp, err
	}
	n, err := keyBytes(creq)
	if err != nil {
		return lp, err
	}
	t.value("service.key_bytes", float64(n))
	lp.hit += t.timed("service.cache_lookup", root, req, func() { t.srv.Cache().Lookup(key) })

	// Queue wait and planning, through a pool built as the server builds
	// its own; the planner reports its phases to the recorder.
	rec := obs.NewTraceRecorder()
	var started, finished time.Time
	a0 := t.heapAllocated()
	submitted := time.Now()
	plan, err := t.pool.Submit(context.Background(), func(ctx context.Context) (*core.Plan, error) {
		started = time.Now()
		defer func() { finished = time.Now() }()
		return core.NewHeuristic().PlanContext(obs.ContextWithTrace(ctx, rec), creq)
	})
	if err != nil {
		return lp, fmt.Errorf("plan: %w", err)
	}
	t.value("core.plan_alloc_bytes", float64(t.heapAllocated()-a0))
	t.record("service.queue_wait", root, req, submitted, started)
	planSpan := t.record("core.plan", root, req, started, finished)
	lp.miss += finished.Sub(submitted)
	pt := rec.Trace()
	at := started
	for _, ph := range pt.Phases {
		d := time.Duration(ph.DurationMS * float64(time.Millisecond))
		t.record("core."+ph.Name, planSpan, req, at, at.Add(d))
		at = at.Add(d)
	}
	t.value("core.candidate_scans", float64(pt.Counters["candidate_scans"]))
	t.value("core.evaluator_ops", float64(pt.Counters["evaluator_ops"]))
	classPlanned := 0.0
	if plan.ClassPlanned {
		classPlanned = 1
	}
	t.value("core.class_planned", classPlanned)
	t.value("core.pool_classes", float64(plan.PoolClasses))
	t.value("core.nodes_used", float64(plan.NodesUsed))

	t.timed("core.class_index", root, req, func() { core.BuildClassIndex(p.Nodes) })
	lp.miss += t.timedAlloc("service.render", "service.render_alloc_bytes", root, req, func() { _, err = service.Render(plan) })
	if err != nil {
		return lp, err
	}
	return lp, nil
}

// encode times the response encoding the handler does (writeJSON's
// two-space-indented json.Encoder) on the decoded answer.
func (t *tracer) encode(req, root int, resp *service.PlanResponse) time.Duration {
	t.encoded.Reset()
	d := t.timed("service.encode", root, req, func() {
		enc := json.NewEncoder(&t.encoded)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp) // writes to a bytes.Buffer; the answer decoded from the same JSON
	})
	t.value("service.response_bytes", float64(t.encoded.Len()))
	return d
}

// putLayers times the PUT path's layers on the PUT body: platform.ParseJSON
// and a registry put (into the scratch registry).
func (t *tracer) putLayers(req, root int, name string, body []byte) error {
	var (
		p   *platform.Platform
		err error
	)
	t.timed("platform.parse", root, req, func() { p, err = platform.ParseJSON(body) })
	if err != nil {
		return fmt.Errorf("parse PUT body: %w", err)
	}
	t.timed("service.registry_put", root, req, func() { err = t.scratch.Put(name, p) })
	return err
}

// putPlatform times the PUT path's layers once on platform p, for the
// workloads that send no PUT.
func (t *tracer) putPlatform(req int, name string, p *platform.Platform) error {
	body, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("encode platform %s: %w", name, err)
	}
	root := t.open("request", 0, req)
	defer t.end(root)
	return t.putLayers(req, root, name, body)
}

// parentPhase names the phase that each phase the daemon reports runs
// inside; phases not listed run directly inside the handler.
var parentPhase = map[string]string{
	"queue_wait": "flight_wait", "plan": "flight_wait", "render": "flight_wait",
	"sort_nodes": "plan", "grow": "plan", "snapshots": "plan", "replay": "plan",
}

// handlerPhases records the phases of a "trace":true answer as spans
// under the handler span. The daemon reports each phase's duration, not
// its start, and reports a phase when it ends (children before parents);
// siblings are placed end to end from their parent's start, in the order
// reported.
func (t *tracer) handlerPhases(handler, req int, start time.Time, phases []obs.PhaseSpan) {
	type slot struct {
		id   int
		next time.Time
	}
	reported := make(map[string]bool, len(phases))
	for _, ph := range phases {
		reported[ph.Name] = true
	}
	placed := map[string]*slot{"": {handler, start}}
	for pending := phases; len(pending) > 0; {
		var later []obs.PhaseSpan
		for _, ph := range pending {
			parent := parentPhase[ph.Name]
			if !reported[parent] {
				parent = ""
			}
			s, ok := placed[parent]
			if !ok {
				later = append(later, ph)
				continue
			}
			d := time.Duration(ph.DurationMS * float64(time.Millisecond))
			id := t.record("handler."+ph.Name, s.id, req, s.next, s.next.Add(d))
			placed[ph.Name] = &slot{id, s.next}
			s.next = s.next.Add(d)
		}
		if len(later) == len(pending) {
			return
		}
		pending = later
	}
}

func (t *tracer) spansNamed(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// timedLayers are the layer calls reported as <name>_ms: the median
// duration of the call over the traced requests (0 when a phase never ran
// on this workload's requests).
var timedLayers = []string{
	"service.decode", "service.registry_get", "core.validate", "platform.validate",
	"service.key", "service.cache_lookup", "service.queue_wait", "core.plan",
	"core.sort_nodes", "core.grow", "core.snapshots", "core.replay", "core.class_index",
	"service.render", "service.encode", "service.registry_put", "platform.parse",
}

// valueUnits are the per-call values reported as their median.
var valueUnits = map[string]string{
	"service.key_alloc_bytes": "B", "service.key_bytes": "B", "core.validate_alloc_bytes": "B",
	"core.plan_alloc_bytes": "B", "service.render_alloc_bytes": "B", "service.response_bytes": "B",
	"core.candidate_scans": "count", "core.evaluator_ops": "count", "core.class_planned": "ratio",
	"core.pool_classes": "count", "core.nodes_used": "count",
}

func (t *tracer) metrics() map[string]metric {
	m := make(map[string]metric)
	for _, name := range timedLayers {
		m[name+"_ms"] = metric{ms(quantile(t.spansNamed(name), 0.5)), "ms"}
	}
	for name, unit := range valueUnits {
		m[name] = metric{median(t.values[name]), unit}
	}
	handler := quantile(t.handler, 0.5)
	m["service.handler_ms"] = metric{ms(handler), "ms"}
	m["service.layer_coverage"] = metric{float64(quantile(t.pathSums, 0.5)) / float64(max(handler, 1)), "ratio"}
	return m
}

// write saves the spans as JSON lines at path, and the per-name medians
// of duration and self time (duration minus the children's) beside it.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
		children[s.Parent] += s.dur()
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	type summary struct {
		Count        int     `json:"count"`
		MedianMS     float64 `json:"median_ms"`
		MedianSelfMS float64 `json:"median_self_ms"`
	}
	durs, selfs := map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		selfs[s.Name] = append(selfs[s.Name], s.dur()-children[s.ID])
	}
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]summary, len(names))
	for _, name := range names {
		out[name] = summary{len(durs[name]), ms(quantile(durs[name], 0.5)), ms(quantile(selfs[name], 0.5))}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(strings.TrimSuffix(path, ".jsonl")+".selftime.json", data, 0o644)
}

// wappOf resolves a request's service cost as the daemon does.
func wappOf(pr service.PlanRequest) float64 {
	switch {
	case pr.Wapp > 0:
		return pr.Wapp
	case pr.DgemmN > 0:
		return workload.DGEMM{N: pr.DgemmN}.MFlop()
	default:
		return workload.DGEMM{N: 310}.MFlop()
	}
}

// keyInput mirrors the canonical form service.KeyFor hashes, so the traced
// run can report how many bytes the content address digests.
type keyInput struct {
	Planner  string             `json:"planner"`
	Platform *platform.Platform `json:"platform"`
	Costs    model.Costs        `json:"costs"`
	Wapp     float64            `json:"wapp"`
	Demand   workload.Demand    `json:"demand"`
}

func keyBytes(req core.Request) (int, error) {
	data, err := json.Marshal(keyInput{"heuristic", req.Platform, req.Costs, req.Wapp, req.Demand})
	return len(data), err
}
