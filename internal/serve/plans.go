package serve

import (
	"container/list"
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
// artifacts and still misses there. It is bounded by the grants its
// plans hold and evicts the least recently used first; a plan larger
// than the whole bound serves its own request and is not kept, as the
// memory tier treats an oversized artifact.
type planMemo struct {
	mu     sync.Mutex
	max    int
	weight int                      // Σ entry weights
	plans  map[string]*list.Element // of *planEntry
	lru    *list.List               // front = most recently used
}

type planEntry struct {
	key    string
	plan   *perfmodel.Plan
	comps  int // components, each weighing planComponentGrants
	weight int // as last charged
}

func newPlanMemo(maxGrants int) *planMemo {
	return &planMemo{max: maxGrants, plans: make(map[string]*list.Element), lru: list.New()}
}

// get returns the plan kept for key, or builds one of comps components
// and keeps it. The build runs outside the lock, as it fits curves; of
// two misses racing on one key the first to finish is kept and both get
// it, so one walk serves them.
func (m *planMemo) get(key string, comps int, build func() (*perfmodel.Plan, error)) (*perfmodel.Plan, error) {
	m.mu.Lock()
	p := m.lookupLocked(key)
	m.mu.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if kept := m.lookupLocked(key); kept != nil {
		return kept, nil
	}
	m.plans[key] = m.lru.PushFront(&planEntry{key: key, plan: p, comps: comps})
	return p, nil
}

// lookupLocked returns the plan kept for key, or nil, and marks it the
// most recently used.
func (m *planMemo) lookupLocked(key string) *perfmodel.Plan {
	el, ok := m.plans[key]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*planEntry).plan
}

// charge weighs key's plan again after an Allocate may have extended
// it, then evicts from the least recently used end until the memo fits
// its bound. A plan that alone exceeds the bound is dropped.
func (m *planMemo) charge(key string, p *perfmodel.Plan) {
	grants := p.Grants() // outside m.mu: an Allocate may hold the plan's lock for a long walk
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.plans[key]
	if !ok || el.Value.(*planEntry).plan != p {
		return // evicted meanwhile
	}
	e := el.Value.(*planEntry)
	// A plan only grows, so of two racing charges the larger count stands.
	w := max(e.weight, grants+planComponentGrants*e.comps)
	m.weight += w - e.weight
	e.weight = w
	if w > m.max {
		m.removeLocked(el)
		return
	}
	for m.weight > m.max {
		m.removeLocked(m.lru.Back())
	}
}

func (m *planMemo) removeLocked(el *list.Element) {
	e := m.lru.Remove(el).(*planEntry)
	delete(m.plans, e.key)
	m.weight -= e.weight
}
