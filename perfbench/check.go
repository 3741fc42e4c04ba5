package main

import (
	"fmt"
	"math"
	"strings"

	"adept/internal/baseline"
	"adept/internal/core"
	"adept/internal/hierarchy"
	"adept/internal/model"
	"adept/internal/platform"
)

// rhoTolerance is the relative difference allowed between the answered ρ
// and the benchmark's own re-evaluation of the answered deployment.
const rhoTolerance = 1e-9

// costs are the middleware costs every request of the benchmark plans
// with: the daemon's default, the paper's Table 3.
var costs = model.DIETDefaults()

// starPlan is the baseline.Star plan of platform p for service cost wapp.
func starPlan(p *platform.Platform, wapp float64) (*core.Plan, error) {
	plan, err := (&baseline.Star{}).Plan(core.Request{Platform: p, Costs: costs, Wapp: wapp})
	if err != nil {
		return nil, fmt.Errorf("star baseline on %s: %w", p.Name, err)
	}
	return plan, nil
}

// verifyPlan checks one answered plan without trusting the planner: it
// parses the deployment XML, re-evaluates ρ with the paper's model and
// compares it with the answered rho, and requires every deployed element
// to be a distinct node of pool p with p's power and link. It keeps no
// index of p: one pass over p's nodes looks each up among the deployed
// ones, so a check allocates in proportion to the deployment only.
func verifyPlan(doc string, rho, wapp float64, p *platform.Platform) error {
	h, err := hierarchy.ParseXML(strings.NewReader(doc))
	if err != nil {
		return fmt.Errorf("answered XML does not parse: %w", err)
	}
	got := h.Evaluate(costs, p.Bandwidth, wapp).Rho
	if math.Abs(got-rho) > rhoTolerance*math.Max(math.Abs(got), math.Abs(rho)) {
		return fmt.Errorf("answered rho %v, the model gives %v for the answered deployment", rho, got)
	}
	deployed := make(map[string]hierarchy.Node, h.Len())
	var bad error
	h.Walk(func(n hierarchy.Node) {
		if _, twice := deployed[n.Name]; twice && bad == nil {
			bad = fmt.Errorf("node %q is deployed twice", n.Name)
		}
		deployed[n.Name] = n
	})
	if bad != nil {
		return bad
	}
	for _, pn := range p.Nodes {
		n, ok := deployed[pn.Name]
		if !ok {
			continue
		}
		if pn.Power != n.Power || pn.LinkBandwidth != n.Bandwidth {
			return fmt.Errorf("deployed node %q has power %v and link %v, the pool says %v and %v",
				n.Name, n.Power, n.Bandwidth, pn.Power, pn.LinkBandwidth)
		}
		delete(deployed, pn.Name)
	}
	for name := range deployed {
		return fmt.Errorf("deployed node %q is not in the pool", name)
	}
	return nil
}

// aboveStar requires the answered ρ to be at least the star baseline's.
func aboveStar(rho, starRho float64) error {
	if rho < starRho*(1-rhoTolerance) {
		return fmt.Errorf("rho %v is below the star baseline's %v", rho, starRho)
	}
	return nil
}
