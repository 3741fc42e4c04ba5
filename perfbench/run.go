package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"adept/internal/platform"
	"adept/internal/service"
)

// traffic is one workload's inputs and traffic mix. A value serves one
// set-up only: run builds a fresh one for every set-up it times.
type traffic interface {
	// setups is how many times run times the whole set-up; the median is
	// setup_s and the last set-up is the one measured.
	setups() int
	// setup generates the seed's inputs, registers them with c's server
	// and sends the untimed warm-up traffic.
	setup(c *client, seed int64) error
	// round sends one round of operations. Every run attempts whole
	// rounds, so the share of failed operations does not depend on the
	// run's length.
	round(c *client) error
	// verify checks the answers of the round just measured against
	// computations made apart from the planner. measure calls it after
	// every round, with the round's clock and allocation count stopped,
	// so that no answer has to be kept until the window ends.
	verify() error
	// check makes the checks verify leaves until after the window.
	check() error
	// inventory returns one registered platform, for the traced run's
	// parse and registry-put layer timings.
	inventory() (string, *platform.Platform)
}

var workloads = map[string]func() traffic{
	"hot-hits":        func() traffic { return &hotHits{} },
	"fleet-fresh":     func() traffic { return &fleetFresh{} },
	"inventory-churn": func() traffic { return &inventoryChurn{} },
}

// newServer builds the daemon exactly as adeptd does in single-node mode
// with its default flags: in-memory registry and cache, GOMAXPROCS
// workers, a 64-deep queue, the 30 s plan cap and the 1 s sampler.
func newServer() (*service.Server, error) {
	return service.New(service.Config{
		CacheSize:   256,
		QueueDepth:  64,
		PlanTimeout: 30 * time.Second,
	})
}

func run(name string, newWorkload func() traffic, seed int64, window time.Duration, traced bool, out string) (*result, error) {
	var (
		w      traffic
		c      *client
		setups []float64
	)
	for i, n := 0, newWorkload().setups(); i < n; i++ {
		if c != nil {
			c.srv.Close()
			c, w = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		srv, err := newServer()
		if err != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		w, c = newWorkload(), newClient(srv)
		if err := w.setup(c, seed); err != nil {
			srv.Close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.srv.Close()

	var tr *tracer
	var gcBefore, gcAfter runtime.MemStats
	var plansBefore float64
	if traced {
		var err error
		if tr, err = newTracer(c.srv); err != nil {
			return nil, err
		}
		defer tr.close()
		if plansBefore, err = c.scrapeCounter("adeptd_plans_executed_total"); err != nil {
			return nil, err
		}
		// The first half runs untraced: it gives the reference median for
		// the tracing overhead and the garbage-collector figures.
		window /= 2
		c.countCache = true
	}

	c.reserve(window)
	runtime.GC()
	if traced {
		runtime.ReadMemStats(&gcBefore)
	}
	c.measuring = true
	elapsed, err := measure(w, c, window)
	if err != nil {
		return nil, err
	}
	untracedOps, untracedLatency := c.attempted, c.planLatency
	// The operations over the rounds' summed time count every stall in
	// full, unlike throughput_rps; they are reported, not gated.
	windowRate := sumRate(c.rounds)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations in a %.3f s window: %.6g/s over the rounds' summed time, %.6g/s at the median round's pace\n",
		name, untracedOps, elapsed.Seconds(), windowRate, roundRate(c.rounds))
	if traced {
		runtime.ReadMemStats(&gcAfter)
		c.tr, c.planLatency = tr, nil
		if _, err := measure(w, c, window); err != nil {
			return nil, err
		}
		c.tr, c.countCache = nil, false
	}
	c.measuring = false
	rss := peakRSSMiB()

	correct := len(c.violated) == 0
	if err := w.check(); err != nil {
		c.violation("%v", err)
		correct = false
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed:\n  %s\n", name, strings.Join(c.violated, "\n  "))
	}
	if c.attempted == 0 {
		return nil, errors.New("no operation completed in the window")
	}
	res := &result{Correct: correct, Attempted: c.attempted, Failed: c.failed}

	if !traced {
		res.Metrics = map[string]metric{
			"latency_p50_ms":      {ms(quantile(c.planLatency, 0.5)), "ms"},
			"throughput_rps":      {roundRate(c.rounds), "1/s"},
			"alloc_bytes_per_req": {float64(c.allocBytes) / float64(c.attempted), "B"},
			"peak_rss_mb":         {rss, "MB"},
			"plan_rho":            {c.rhoSum / float64(max(c.rhoCount, 1)), "req/s"},
			"setup_s":             {median(setups), "s"},
		}
		return res, nil
	}

	if len(tr.spansNamed("service.registry_put")) == 0 {
		// This workload sends no PUT: time the parse and registry layers
		// once on its own inventory.
		pname, p := w.inventory()
		if err := tr.putPlatform(c.reqSeq, pname, p); err != nil {
			return nil, err
		}
	}
	plansAfter, err := c.scrapeCounter("adeptd_plans_executed_total")
	if err != nil {
		return nil, err
	}
	res.Metrics = tr.metrics()
	res.Metrics["service.plans_executed"] = metric{plansAfter - plansBefore, "count"}
	res.Metrics["service.cache_hits"] = metric{float64(c.hits), "count"}
	res.Metrics["service.cache_misses"] = metric{float64(c.misses), "count"}
	res.Metrics["service.cache_hit_ratio"] = metric{float64(c.hits) / float64(max(c.hits+c.misses, 1)), "ratio"}
	res.Metrics["go.gc_cycles_per_req"] = metric{float64(gcAfter.NumGC-gcBefore.NumGC) / float64(untracedOps), "count"}
	res.Metrics["go.gc_pause_ms"] = metric{float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6 / float64(untracedOps), "ms"}
	res.Metrics["service.handler_p99_ms"] = metric{ms(quantile(untracedLatency, 0.99)), "ms"}
	res.Metrics["window_rps"] = metric{windowRate, "1/s"}
	res.Metrics["trace.overhead_ms"] = metric{ms(quantile(c.planLatency, 0.5)) - ms(quantile(untracedLatency, 0.5)), "ms"}
	path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// measure sends whole rounds until the window has passed, recording each
// round's operation count, duration and heap allocation, and verifies each
// round's answers between rounds. It returns the window's length.
func measure(w traffic, c *client, window time.Duration) (time.Duration, error) {
	start := time.Now()
	for time.Since(start) < window {
		a0 := heapAllocated(&c.mem)
		t0, n0 := time.Now(), c.attempted
		if err := w.round(c); err != nil {
			return 0, err
		}
		dur := time.Since(t0)
		c.allocBytes += heapAllocated(&c.mem) - a0
		c.rounds = append(c.rounds, round{ops: c.attempted - n0, dur: dur})
		if err := w.verify(); err != nil {
			c.violation("%v", err)
		}
	}
	return time.Since(start), nil
}

// peakRSSMiB is the process's peak resident set size (VmHWM), in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
