package serve

import "container/list"

// lru is the serving edge's one retention rule: a weighted
// least-recently-used map. The memory tier weighs artifacts in bytes,
// the plan memo weighs plans in grants, and the registry weighs each
// retired job 1. It is not synchronised; each owner guards it with its
// own lock.
type lru[V any] struct {
	max       int64
	weight    int64 // Σ item weights
	items     map[string]*list.Element
	order     *list.List // of *lruItem[V]; front = most recently used
	evictions uint64
}

type lruItem[V any] struct {
	key    string
	val    V
	weight int64
}

func newLRU[V any](max int64) *lru[V] {
	return &lru[V]{max: max, items: make(map[string]*list.Element), order: list.New()}
}

// get returns the value kept for key and marks it the most recently
// used.
func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put keeps val under key as the most recently used, or, when key is
// kept already, raises its weight to weight (the kept value stays).
// Then it evicts from the least recently used end, counting each
// eviction, until the weights fit the bound. An entry heavier than the
// whole bound is not kept: it would evict everything else for no reuse.
func (l *lru[V]) put(key string, val V, weight int64) {
	el, ok := l.items[key]
	switch {
	case weight > l.max:
		l.remove(key)
		return
	case ok:
		it := el.Value.(*lruItem[V])
		w := max(weight, it.weight)
		l.weight += w - it.weight
		it.weight = w
		l.order.MoveToFront(el)
	default:
		l.items[key] = l.order.PushFront(&lruItem[V]{key: key, val: val, weight: weight})
		l.weight += weight
	}
	for l.weight > l.max {
		l.remove(l.order.Back().Value.(*lruItem[V]).key)
		l.evictions++
	}
}

// remove drops key's entry, if one is kept.
func (l *lru[V]) remove(key string) {
	if el, ok := l.items[key]; ok {
		l.weight -= l.order.Remove(el).(*lruItem[V]).weight
		delete(l.items, key)
	}
}
