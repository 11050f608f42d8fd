package serve

import (
	"sync"

	"cpx/internal/perfmodel"
)

// maxBudget bounds the core budget of /v1/allocate and /v1/speedup.
// ARCHER2, the paper's machine, has 750,080 cores. Algorithm 1's walk
// has no context to cancel it, so the bound is also its cost bound: for
// curves that never saturate, a 4 MiB plan and 0.14 s (one component)
// to 0.33 s (50,000 components) on a 2-core host.
const maxBudget = 1 << 20

// maxPlanGrants bounds the grants the plan memo holds in all: 8 MiB at
// four bytes a grant.
const maxPlanGrants = 1 << 21

// planComponentGrants is what one component weighs against that bound:
// its curve constants, walk state and heap entry take about 128 bytes,
// 32 grants' worth. Without it, plans of many components that grant
// nothing would be kept without bound.
const planComponentGrants = 32

// planLabel is the plan memo's cacheKey label, in place of an endpoint:
// a plan is keyed by the canonical bytes of its []ComponentSpec alone.
const planLabel = "perfmodel.Plan"

// planMemo keeps one Algorithm 1 plan per component set, so that a
// budget sweep over one set fits its curves and walks once, and every
// request replays a prefix of that walk (perfmodel.Plan). It sits below
// the response cache: requests that differ in budget alone are distinct
// artifacts and still misses there. It is an lru weighed in grants plus
// planComponentGrants a component: a plan larger than the whole bound
// serves its own request and is not kept, as the memory tier treats an
// oversized artifact.
type planMemo struct {
	mu    sync.Mutex
	plans *lru[*perfmodel.Plan]
}

func newPlanMemo(maxGrants int) *planMemo {
	return &planMemo{plans: newLRU[*perfmodel.Plan](int64(maxGrants))}
}

// get returns the plan kept for key, or builds one of comps components
// and keeps it. The build runs outside the lock, as it fits curves; of
// two misses racing on one key the first to finish is kept and both get
// it, so one walk serves them.
func (m *planMemo) get(key string, comps int, build func() (*perfmodel.Plan, error)) (*perfmodel.Plan, error) {
	m.mu.Lock()
	p, ok := m.plans.get(key)
	m.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if kept, ok := m.plans.get(key); ok {
		return kept, nil
	}
	m.plans.put(key, p, planWeight(p, comps))
	return p, nil
}

// charge weighs key's plan of comps components again after an Allocate
// may have extended it. A plan only grows, so of two racing charges the
// larger weight stands.
func (m *planMemo) charge(key string, comps int, p *perfmodel.Plan) {
	w := planWeight(p, comps) // outside m.mu: an Allocate may hold the plan's lock for a long walk
	m.mu.Lock()
	defer m.mu.Unlock()
	if kept, ok := m.plans.get(key); ok && kept == p { // else evicted meanwhile
		m.plans.put(key, p, w)
	}
}

func planWeight(p *perfmodel.Plan, comps int) int64 {
	return int64(p.Grants() + planComponentGrants*comps)
}
