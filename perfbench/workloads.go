package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"adept/internal/platform"
	"adept/internal/scenario"
	"adept/internal/service"
	"adept/internal/workload"
)

// ---------------------------------------------------------------- hot-hits

// hot-hits: eight registered 120-node heterogeneous platforms (the paper's
// Fig. 6 platform: powers 100–800 MFlop/s, 100 Mb/s links, DGEMM 310),
// requested by name round-robin with every key pre-warmed. Only the
// request path works: decode, resolve, content address, cache, encode.
const (
	hotPlatforms = 8
	hotNodes     = 120
	hotDgemm     = 310
	// hotWarmRounds of untimed hits follow the pre-warming misses.
	hotWarmRounds = 50
)

type hotHits struct {
	plats []*platform.Platform
	reqs  []service.PlanRequest
	keys  []string
	// answers holds each distinct (platform, XML, ρ) answered while
	// measuring, and whether verify has checked it yet; with every
	// request a hit there is one per platform.
	answers map[hotAnswer]bool
}

type hotAnswer struct {
	plat int
	xml  string
	rho  float64
}

func (*hotHits) setups() int { return 15 }

func (w *hotHits) setup(c *client, seed int64) error {
	w.answers = make(map[hotAnswer]bool)
	for i := 0; i < hotPlatforms; i++ {
		name := fmt.Sprintf("hot-%d", i)
		p, err := platform.Generate(platform.GenSpec{
			Name: name, N: hotNodes, MinPower: 100, MaxPower: 800, Bandwidth: 100,
			Seed: seed*hotPlatforms + int64(i),
		})
		if err != nil {
			return err
		}
		if err := c.srv.Registry().Put(name, p); err != nil {
			return err
		}
		w.plats = append(w.plats, p)
		w.reqs = append(w.reqs, service.PlanRequest{PlatformName: name, DgemmN: hotDgemm})
		resp, ok := c.plan(w.reqs[i])
		if !ok {
			return fmt.Errorf("warm-up plan of %s failed", name)
		}
		if resp.Cached {
			return fmt.Errorf("warm-up plan of %s was already cached", name)
		}
		w.keys = append(w.keys, resp.Key)
	}
	for r := 0; r < hotWarmRounds; r++ {
		if err := w.round(c); err != nil {
			return err
		}
	}
	return nil
}

func (w *hotHits) round(c *client) error {
	for i, pr := range w.reqs {
		resp, ok := c.plan(pr)
		if !ok {
			continue
		}
		if !resp.Cached || resp.Key != w.keys[i] {
			c.violation("hot-hits: %s answered cached=%v key=%s, want a hit on %s", pr.PlatformName, resp.Cached, resp.Key, w.keys[i])
		}
		if a := (hotAnswer{i, resp.XML, resp.Rho}); c.measuring && !w.answers[a] {
			w.answers[a] = false
		}
	}
	return nil
}

func (w *hotHits) verify() error {
	wapp := workload.DGEMM{N: hotDgemm}.MFlop()
	for a, checked := range w.answers {
		if checked {
			continue
		}
		w.answers[a] = true
		p := w.plats[a.plat]
		star, err := starPlan(p, wapp)
		if err != nil {
			return err
		}
		if err := verifyPlan(a.xml, a.rho, wapp, p); err != nil {
			return fmt.Errorf("hot-hits %s: %w", p.Name, err)
		}
		if err := aboveStar(a.rho, star.Eval.Rho); err != nil {
			return fmt.Errorf("hot-hits %s: %w", p.Name, err)
		}
	}
	return nil
}

func (*hotHits) check() error { return nil }

func (w *hotHits) inventory() (string, *platform.Platform) { return w.reqs[0].PlatformName, w.plats[0] }

// ------------------------------------------------------------- fleet-fresh

// fleet-fresh: one registered 1,000,000-node cluster-grid platform (8
// clusters, 20 power levels: the inventory of BenchmarkHeuristicPlan1M),
// registered through Registry.Put as adeptd -platform-dir does, since its
// JSON exceeds the PUT endpoint's 16 MiB cap. Request i asks for the
// DGEMM-1000 cost plus i MFlop, so every request is a cache miss that
// plans the same amount of work on the class-collapsed path.
const (
	fleetName  = "fleet"
	fleetNodes = 1_000_000
)

var fleetWapp = workload.DGEMM{N: 1000}.MFlop()

type fleetFresh struct {
	plat *platform.Platform
	next int
	// fresh is the last round's answer until verify checks it; answers
	// keeps each verified answer's wapp and ρ for the star comparison.
	fresh   *fleetAnswer
	answers []fleetAnswer
}

type fleetAnswer struct {
	wapp float64
	xml  string
	rho  float64
}

func (*fleetFresh) setups() int { return 3 }

func (w *fleetFresh) setup(c *client, seed int64) error {
	p, err := (scenario.Spec{Family: scenario.ClusterGrid, N: fleetNodes, Seed: seed, Clusters: 8, PowerLevels: 20}).Generate()
	if err != nil {
		return err
	}
	if err := c.srv.Registry().Put(fleetName, p); err != nil {
		return err
	}
	w.plat = p
	err = w.round(c) // one untimed plan warms the planning path
	w.fresh = nil
	return err
}

func (w *fleetFresh) round(c *client) error {
	wapp := fleetWapp + float64(w.next)
	w.next++
	w.fresh = nil
	resp, ok := c.plan(service.PlanRequest{PlatformName: fleetName, Wapp: wapp})
	if !ok {
		return nil
	}
	if resp.Cached || !resp.ClassPlanned {
		c.violation("fleet-fresh: wapp %v answered cached=%v class_planned=%v, want a fresh class-planned plan", wapp, resp.Cached, resp.ClassPlanned)
	}
	w.fresh = &fleetAnswer{wapp, resp.XML, resp.Rho}
	return nil
}

// verify checks the round's answer against the pool and keeps its wapp
// and ρ; the star comparison waits for check, since the star baseline of
// a 1M-node pool is a 1M-node hierarchy.
func (w *fleetFresh) verify() error {
	a := w.fresh
	if a == nil {
		return nil // the plan failed and was counted as failed
	}
	w.fresh = nil
	if err := verifyPlan(a.xml, a.rho, a.wapp, w.plat); err != nil {
		return fmt.Errorf("fleet-fresh wapp %v: %w", a.wapp, err)
	}
	w.answers = append(w.answers, fleetAnswer{wapp: a.wapp, rho: a.rho})
	return nil
}

func (w *fleetFresh) check() error {
	// The star deployment does not depend on the service cost (it ranks
	// nodes by power), so one baseline.Star plan, re-evaluated at each
	// answer's wapp, is the star plan of every request.
	star, err := starPlan(w.plat, fleetWapp)
	if err != nil {
		return err
	}
	for _, a := range w.answers {
		sr := star.Hierarchy.Evaluate(costs, w.plat.Bandwidth, a.wapp).Rho
		if err := aboveStar(a.rho, sr); err != nil {
			return fmt.Errorf("fleet-fresh wapp %v: %w", a.wapp, err)
		}
	}
	return nil
}

func (w *fleetFresh) inventory() (string, *platform.Platform) { return fleetName, w.plat }

// --------------------------------------------------------- inventory-churn

// inventory-churn: four registered 2,000-node trace-perturbed platforms
// (incompressible and below the 4,096-node class floor, so planned in node
// space), DGEMM 1000. Each cycle rescales one node's power by a seeded
// factor, PUTs the platform with If-Match set to the current ETag, then
// sends four plan requests by name: the first misses, the next three hit.
const (
	churnPlatforms = 4
	churnNodes     = 2000
	churnDgemm     = 1000
	// churnWarmCycles untimed cycles (one per platform) end the set-up.
	churnWarmCycles = churnPlatforms
	churnHits       = 3
)

type inventoryChurn struct {
	plats    []*platform.Platform
	names    []string
	versions []uint64
	lastKey  []string
	rng      *rand.Rand
	cycle    int
	// fresh is the last cycle's fresh plan until verify checks it (nil
	// when that plan failed).
	fresh *churnFresh
}

// churnFresh is the fresh plan answered for platform plat after its PUT.
type churnFresh struct {
	plat int
	xml  string
	rho  float64
}

func (*inventoryChurn) setups() int { return 15 }

func (w *inventoryChurn) setup(c *client, seed int64) error {
	w.rng = rand.New(rand.NewSource(seed))
	for i := 0; i < churnPlatforms; i++ {
		name := fmt.Sprintf("churn-%d", i)
		p, err := (scenario.Spec{Family: scenario.TracePerturbed, N: churnNodes, Seed: seed*churnPlatforms + int64(i)}).Generate()
		if err != nil {
			return err
		}
		if err := c.srv.Registry().Put(name, p); err != nil {
			return err
		}
		_, version, _ := c.srv.Registry().GetVersion(name)
		w.plats = append(w.plats, p)
		w.names = append(w.names, name)
		w.versions = append(w.versions, version)
		w.lastKey = append(w.lastKey, "")
	}
	for i := 0; i < churnWarmCycles; i++ {
		if err := w.round(c); err != nil {
			return err
		}
	}
	w.fresh = nil
	return nil
}

func (w *inventoryChurn) round(c *client) error {
	j := w.cycle % churnPlatforms
	w.cycle++
	w.fresh = nil
	p, name := w.plats[j], w.names[j]
	k := w.rng.Intn(len(p.Nodes))
	p.Nodes[k].Power *= 0.8 + 0.4*w.rng.Float64()
	body, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("encode platform %s: %w", name, err)
	}
	if version, ok := c.put(name, body, w.versions[j]); ok {
		if version != w.versions[j]+1 {
			c.violation("inventory-churn: PUT %s moved the version from %d to %d", name, w.versions[j], version)
		}
		w.versions[j] = version
	}

	pr := service.PlanRequest{PlatformName: name, DgemmN: churnDgemm}
	fresh, ok := c.plan(pr)
	if ok {
		if fresh.Cached || fresh.ClassPlanned || fresh.Key == w.lastKey[j] {
			c.violation("inventory-churn: first plan of %s after a PUT answered cached=%v class_planned=%v key_changed=%v, want a fresh node-space plan on a new key",
				name, fresh.Cached, fresh.ClassPlanned, fresh.Key != w.lastKey[j])
		}
		w.lastKey[j] = fresh.Key
		w.fresh = &churnFresh{plat: j, xml: fresh.XML, rho: fresh.Rho}
	}
	for i := 0; i < churnHits; i++ {
		hit, ok := c.plan(pr)
		if !ok {
			continue
		}
		if !hit.Cached || hit.ClassPlanned || hit.Key != fresh.Key || hit.XML != fresh.XML || hit.Rho != fresh.Rho {
			c.violation("inventory-churn: plan %d of %s after a PUT answered cached=%v class_planned=%v same_key=%v same_plan=%v, want a hit on the fresh plan",
				i+2, name, hit.Cached, hit.ClassPlanned, hit.Key == fresh.Key, hit.XML == fresh.XML && hit.Rho == fresh.Rho)
		}
	}
	return nil
}

// verify checks the cycle's fresh plan against the platform as the cycle
// PUT it: the client's copy, which only round edits.
func (w *inventoryChurn) verify() error {
	f := w.fresh
	if f == nil {
		return nil // the plan failed and was counted as failed
	}
	w.fresh = nil
	wapp := workload.DGEMM{N: churnDgemm}.MFlop()
	p := w.plats[f.plat]
	star, err := starPlan(p, wapp)
	if err == nil {
		err = verifyPlan(f.xml, f.rho, wapp, p)
	}
	if err == nil {
		err = aboveStar(f.rho, star.Eval.Rho)
	}
	if err != nil {
		return fmt.Errorf("inventory-churn cycle %d on %s: %w", w.cycle, w.names[f.plat], err)
	}
	return nil
}

func (*inventoryChurn) check() error { return nil }

func (w *inventoryChurn) inventory() (string, *platform.Platform) { return w.names[0], w.plats[0] }
