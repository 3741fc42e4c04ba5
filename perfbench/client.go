package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"adept/internal/service"
)

// client is the benchmark's one closed-loop caller: it sends a request,
// waits for the handler to return, and only then sends the next. While
// measuring is set it records every operation.
type client struct {
	srv *service.Server
	h   http.Handler
	w   recorder
	mem runtime.MemStats

	measuring bool
	attempted int
	failed    int
	// planLatency holds the handler time of every measured POST /v1/plan,
	// rounds the measured rounds, allocBytes the heap bytes allocated
	// while they ran (see measure).
	planLatency []time.Duration
	rounds      []round
	allocBytes  uint64
	rhoSum      float64
	rhoCount    int

	// tr is set during the traced half of a traced run; countCache during
	// the whole of one, to sum the cache counters around handler calls only.
	tr         *tracer
	countCache bool
	reqSeq     int
	// answers holds the last answer decoded per request body; see
	// finishPlan.
	answers  map[string]*answer
	hits     uint64
	misses   uint64
	violated []string
}

func newClient(srv *service.Server) *client {
	return &client{
		srv:     srv,
		h:       srv.Handler(),
		w:       recorder{header: make(http.Header)},
		answers: make(map[string]*answer),
	}
}

// round is one measured round of operations and how long it took, from
// building its first request to decoding its last answer.
type round struct {
	ops int
	dur time.Duration
}

// reserve sizes the sample buffers for a window of the given length and
// writes every element once, so that their pages are resident before
// measuring starts: the benchmark's own memory then adds the same amount
// to peak_rss_mb however many operations the window completes.
func (c *client) reserve(window time.Duration) {
	n := int(window.Seconds()*opsPerSecond) + 1
	c.planLatency, c.rounds = make([]time.Duration, n), make([]round, n)
	for i := range c.planLatency {
		c.planLatency[i], c.rounds[i] = 1, round{ops: 1}
	}
	c.planLatency, c.rounds = c.planLatency[:0], c.rounds[:0]
}

// opsPerSecond bounds the operations per second the buffers are sized
// for; a cached hit takes about 0.25 ms, so one client stays below it.
const opsPerSecond = 8192

// heapAllocated reads the exact cumulative count of heap bytes allocated
// by the process into m and returns it. ReadMemStats stops the world and
// flushes every P's allocation cache first, so the count is exact at any
// moment; the runtime/metrics counter /gc/heap/allocs:bytes is not, as it
// advances a whole span at a time.
func heapAllocated(m *runtime.MemStats) uint64 {
	runtime.ReadMemStats(m)
	return m.TotalAlloc
}

// violation records a failed output check; the run then reports
// correct:false. Only the first few are kept for the error message.
func (c *client) violation(format string, args ...any) {
	if len(c.violated) < 5 {
		c.violated = append(c.violated, fmt.Sprintf(format, args...))
	} else if len(c.violated) == 5 {
		c.violated = append(c.violated, "…")
	}
}

// call sends one request through the handler and returns its status, when
// it was sent and the handler time. Only the ServeHTTP call sits between
// the two clock reads; the request is built before them.
func (c *client) call(method, path string, body []byte, ifMatch string) (int, time.Time, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	c.w.reset()
	var h0, m0 uint64
	if c.countCache {
		h0, m0 = c.srv.Cache().Stats()
	}
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, req)
	elapsed := time.Since(t0)
	if c.countCache {
		h1, m1 := c.srv.Cache().Stats()
		c.hits += h1 - h0
		c.misses += m1 - m0
	}
	if c.measuring {
		c.attempted++
		if c.w.code != http.StatusOK {
			c.failed++
		}
	}
	return c.w.code, t0, elapsed
}

// plan sends one POST /v1/plan and decodes the answer. ok is false when
// the daemon did not answer 200 (the operation counts as failed).
func (c *client) plan(pr service.PlanRequest) (resp service.PlanResponse, ok bool) {
	if c.tr != nil {
		return c.tracedPlan(pr)
	}
	body, err := json.Marshal(pr)
	if err != nil {
		c.violation("encode plan request: %v", err)
		return resp, false
	}
	code, _, elapsed := c.call(http.MethodPost, "/v1/plan", body, "")
	return c.finishPlan(code, elapsed, body, &resp)
}

// answer is a decoded plan answer plus its JSON on either side of the
// elapsed_ms field, the one field that differs between two answers of the
// same cached plan.
type answer struct {
	head, tail []byte
	resp       service.PlanResponse
}

// maxAnswers bounds the answers kept for reuse: enough for hot-hits'
// eight platforms; fleet-fresh never repeats a request.
const maxAnswers = 16

// elapsedField starts the elapsed_ms line of an answer.
var elapsedField = []byte(`"elapsed_ms":`)

// finishPlan decodes the plan answer in the recorder and records it. An
// answer whose bytes equal, apart from elapsed_ms, the last answer
// decoded for the same request body is that answer: it is not decoded
// again, which keeps the client's own work between two sends small next
// to a cached hit.
func (c *client) finishPlan(code int, elapsed time.Duration, req []byte, resp *service.PlanResponse) (service.PlanResponse, bool) {
	if code != http.StatusOK {
		c.violation("POST /v1/plan answered %d: %s", code, strings.TrimSpace(c.w.body.String()))
		return *resp, false
	}
	body := c.w.body.Bytes()
	head, tail := body, []byte(nil)
	if i := bytes.Index(body, elapsedField); i >= 0 {
		head = body[:i]
		if j := bytes.IndexByte(body[i:], '\n'); j >= 0 {
			tail = body[i+j:]
		}
	}
	if prev := c.answers[string(req)]; prev != nil && bytes.Equal(prev.head, head) && bytes.Equal(prev.tail, tail) {
		*resp = prev.resp
	} else {
		if err := json.Unmarshal(body, resp); err != nil {
			c.violation("decode plan answer: %v", err)
			return *resp, false
		}
		if len(c.answers) >= maxAnswers {
			clear(c.answers)
		}
		c.answers[string(req)] = &answer{bytes.Clone(head), bytes.Clone(tail), *resp}
	}
	if c.measuring {
		c.planLatency = append(c.planLatency, elapsed)
		c.rhoSum += resp.Rho
		c.rhoCount++
	}
	return *resp, true
}

// put sends PUT /v1/platforms/{name} with If-Match set to the version the
// client last saw, and returns the version in the answer's ETag.
func (c *client) put(name string, body []byte, version uint64) (uint64, bool) {
	req, root := c.reqSeq, 0
	c.reqSeq++
	if c.tr != nil {
		root = c.tr.open("request", 0, req)
		defer c.tr.end(root)
		if err := c.tr.putLayers(req, root, name, body); err != nil {
			c.violation("%v", err)
		}
	}
	etag := `"` + strconv.FormatUint(version, 10) + `"`
	code, t0, elapsed := c.call(http.MethodPut, "/v1/platforms/"+name, body, etag)
	if c.tr != nil {
		c.tr.record("service.put_handler", root, req, t0, t0.Add(elapsed))
	}
	if code != http.StatusOK {
		c.violation("PUT %s with If-Match %s answered %d: %s", name, etag, code, strings.TrimSpace(c.w.body.String()))
		return 0, false
	}
	got, err := strconv.ParseUint(strings.Trim(c.w.header.Get("ETag"), `"`), 10, 64)
	if err != nil {
		c.violation("PUT %s: unreadable ETag %q", name, c.w.header.Get("ETag"))
		return 0, false
	}
	return got, true
}

// scrapeCounter reads one counter from GET /metrics.
func (c *client) scrapeCounter(name string) (float64, error) {
	code, _, _ := c.call(http.MethodGet, "/metrics", nil, "")
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics answered %d", code)
	}
	for _, line := range strings.Split(c.w.body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("GET /metrics has no %s", name)
}

// recorder is a reusable http.ResponseWriter. Its body buffer keeps its
// capacity between requests, so the benchmark does not charge the handler
// for growing a fresh buffer per response — a socket writer would not
// either.
type recorder struct {
	header http.Header
	code   int
	wrote  bool
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.code, r.wrote = code, true
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.code, r.wrote = http.StatusOK, false
	r.body.Reset()
}
