package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/perfmodel"
)

// freshPost answers one request on a server of its own, whose plan memo
// starts empty: the body a request gets when nothing is replayed.
func freshPost(t *testing.T, path, body string) []byte {
	t.Helper()
	s := New(Options{Machine: cluster.SmallCluster()})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("fresh %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestBudgetSweepReplaysPlan: a shuffled budget sweep over one
// component set, which fits its curves and walks Algorithm 1 once,
// answers every budget with the bytes a fresh server gives, and every
// request is still a miss of the response cache. The sweep crosses the
// budget where the demo set stops on no gain, and the speedup sweep
// replays two plans.
func TestBudgetSweepReplaysPlan(t *testing.T) {
	demo := DemoComponents()
	opt := DemoComponents()
	opt[1].Samples = append([]SampleSpec(nil), opt[1].Samples...)
	for i := range opt[1].Samples {
		opt[1].Samples[i].Runtime /= 3
	}
	rng := rand.New(rand.NewSource(7))
	budgets := rng.Perm(60)
	s, ts := testServer(t, Options{})
	for _, ep := range []struct {
		path string
		body func(budget int) any
	}{
		{"/v1/allocate", func(b int) any { return AllocateRequest{Budget: b, Components: demo} }},
		{"/v1/speedup", func(b int) any { return SpeedupRequest{Budget: b, Base: demo, Optimized: opt} }},
	} {
		unallocated := 0
		for _, d := range budgets {
			body, err := json.Marshal(ep.body(400 + 250*d))
			if err != nil {
				t.Fatal(err)
			}
			resp, got := postJSON(t, ts.URL+ep.path, string(body))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("%s %s: %d X-Cache %q %s", ep.path, body, resp.StatusCode, resp.Header.Get("X-Cache"), got)
			}
			if want := freshPost(t, ep.path, string(body)); !bytes.Equal(got, want) {
				t.Fatalf("%s budget %d: replayed\n%s\nfresh\n%s", ep.path, 400+250*d, got, want)
			}
			var ar AllocateResponse
			if json.Unmarshal(got, &ar) == nil && ar.Unallocated > 0 {
				unallocated++
			}
		}
		if ep.path == "/v1/allocate" && (unallocated == 0 || unallocated == len(budgets)) {
			t.Errorf("%d of %d budgets left cores idle; the sweep should cross the walk's stop", unallocated, len(budgets))
		}
	}
	if n := len(s.plans.plans.items); n != 2 {
		t.Errorf("plan memo holds %d plans, want the demo set and its optimised variant", n)
	}
}

// TestPlanMemo: a hit returns the plan it kept; the grant bound evicts
// the least recently used plan first; a plan larger than the bound
// serves its request and is not kept; two racing misses leave one plan.
func TestPlanMemo(t *testing.T) {
	curve := &perfmodel.Curve{BaseCores: 1, BaseTime: 10, P50: 1e9, K: 1}
	newPlan := func() (*perfmodel.Plan, error) {
		return perfmodel.NewPlan([]perfmodel.Component{{Name: "a", Curve: curve}})
	}
	// use allocates budget cores on key's plan, as allocateSpecs does.
	use := func(m *planMemo, key string, budget int) *perfmodel.Plan {
		t.Helper()
		p, err := m.get(key, 1, newPlan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Allocate(budget); err != nil {
			t.Fatal(err)
		}
		m.charge(key, 1, p)
		return p
	}
	kept := func(m *planMemo) []string {
		var keys []string
		for el := m.plans.order.Front(); el != nil; el = el.Next() {
			keys = append(keys, el.Value.(*lruItem[*perfmodel.Plan]).key)
		}
		return keys
	}

	// One component weighs 32 grants, and a budget of b grants b-1 cores.
	m := newPlanMemo(300)
	a := use(m, "a", 101)
	if use(m, "a", 51) != a {
		t.Fatal("a hit built a new plan")
	}
	use(m, "b", 101) // a, b: 132 each
	use(m, "a", 101) // a is now the more recently used
	use(m, "c", 1)   // 32: 296 in all
	if got := fmt.Sprint(kept(m)); got != "[c a b]" || m.plans.weight != 296 {
		t.Fatalf("kept %s weighing %d, want [c a b] weighing 296", got, m.plans.weight)
	}
	use(m, "b", 121) // b grows to 152: the least recently used, a, goes
	if got := fmt.Sprint(kept(m)); got != "[b c]" || m.plans.weight != 184 {
		t.Fatalf("kept %s weighing %d, want [b c] weighing 184", got, m.plans.weight)
	}
	big := use(m, "big", 400) // 431 alone: served, not kept
	if got := fmt.Sprint(kept(m)); got != "[b c]" || m.plans.weight != 184 {
		t.Fatalf("after an oversized plan: kept %s weighing %d, want [b c] weighing 184", got, m.plans.weight)
	}
	if use(m, "big", 10) == big {
		t.Error("an oversized plan was kept")
	}

	// Two misses racing on one key: both builds run, one plan is kept,
	// and both callers get it.
	m = newPlanMemo(maxPlanGrants)
	var building sync.WaitGroup
	building.Add(2)
	var got [2]*perfmodel.Plan
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := m.get("k", 1, func() (*perfmodel.Plan, error) {
				building.Done()
				building.Wait() // both are past the lookup
				return newPlan()
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	wg.Wait()
	if kept, _ := m.plans.get("k"); got[0] != got[1] || len(m.plans.items) != 1 || kept != got[0] {
		t.Errorf("racing misses: plans %p %p, %d kept", got[0], got[1], len(m.plans.items))
	}
}

// TestMaxBudgetWalkIsShort: at maxBudget a curve that never saturates
// (k 0, which the field checks allow) is granted every core. Nothing
// can stop Algorithm 1's walk once it starts, so the budget bound is
// what keeps it, and the plan it leaves, small.
func TestMaxBudgetWalkIsShort(t *testing.T) {
	_, ts := testServer(t, Options{})
	body := fmt.Sprintf(`{"budget": %d, "components": [{"name": "flat", "curve": {"baseCores": 1, "baseTime": 1, "p50": 10, "k": 0}}]}`, maxBudget)
	start := time.Now()
	resp, got := postJSON(t, ts.URL+"/v1/allocate", body)
	took := time.Since(start)
	var ar AllocateResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(got, &ar) != nil || ar.Components[0].Cores != maxBudget {
		t.Fatalf("%d %s, want 200 granting all %d cores", resp.StatusCode, got, maxBudget)
	}
	if took > 2*time.Second {
		t.Errorf("the walk to maxBudget took %v", took)
	}
}
