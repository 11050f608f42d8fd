package serve

import (
	"container/list"
	"context"
	"sync"
)

// CacheOutcome says how a request was satisfied, for the X-Cache
// header and the metrics.
type CacheOutcome string

const (
	// OutcomeMiss: this request started the computation.
	OutcomeMiss CacheOutcome = "miss"
	// OutcomeHit: served from a completed artifact in memory.
	OutcomeHit CacheOutcome = "hit"
	// OutcomeJoin: coalesced onto an identical in-flight computation.
	OutcomeJoin CacheOutcome = "join"
	// OutcomeDisk: served from the persistent tier (and promoted into
	// memory). Byte-identical to a hit; the distinction only matters for
	// capacity planning.
	OutcomeDisk CacheOutcome = "disk"
)

// defaultCacheMaxBytes bounds the in-memory artifact tier when the
// caller gives no budget: generous for a scenario cache (artifacts are
// a few KiB), small enough that a runaway sweep cannot take the process
// down.
const defaultCacheMaxBytes = 256 << 20

// job is one in-flight computation with singleflight semantics plus
// reference counting: every request waiting on it holds a ref, and
// when the last waiter abandons it (deadline, disconnect) the job's
// context is cancelled so the simulation's rank goroutines unwind
// instead of computing for nobody.
type job struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int
	body   []byte
	err    error
}

// entry is one completed artifact in the memory tier.
type entry struct {
	key  string
	body []byte
}

// CacheConfig configures the two-tier result cache.
type CacheConfig struct {
	// MaxBytes bounds the artifact bytes held in memory (<= 0 selects
	// defaultCacheMaxBytes). Least-recently-used artifacts are evicted
	// when an insertion would exceed the budget; an artifact larger than
	// the whole budget is served but never retained.
	MaxBytes int64
	// Disk is the optional persistent tier consulted on a memory miss
	// and written through on every computed artifact. Eviction from
	// memory never touches disk — the persistent tier is the bigger one.
	Disk *DiskCache
}

// Cache is the content-addressed result store. Keys are cacheKey
// digests of canonicalised request specs; values are the exact
// response bytes first computed for that key. Determinism of the
// underlying model and simulator is what makes this sound: recomputing
// a key would produce the identical bytes, so returning the stored
// artifact is indistinguishable from re-running the job.
//
// The memory tier is a byte-budgeted LRU (the unbounded growth the old
// implementation admitted to would sink the server under sweep load);
// under it sits an optional disk tier whose artifacts survive process
// restarts. Content addressing makes every cross-tier race benign:
// any two writers of one key write identical bytes.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element // of *entry
	lru      *list.List               // front = most recently used
	live     map[string]*job
	disk     *DiskCache

	evictions uint64
}

// NewCache returns an empty cache with the given bounds and tiers.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultCacheMaxBytes
	}
	return &Cache{
		maxBytes: cfg.MaxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		live:     make(map[string]*job),
		disk:     cfg.Disk,
	}
}

// lookupLocked returns the memory-tier artifact and refreshes its LRU
// position.
func (c *Cache) lookupLocked(key string) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).body, true
}

// insertLocked stores a completed artifact in the memory tier, evicting
// from the LRU tail until it fits. An artifact that alone exceeds the
// budget is not retained (the disk tier, when present, still has it).
func (c *Cache) insertLocked(key string, body []byte) {
	if _, ok := c.entries[key]; ok {
		return // identical bytes already present (content-addressed)
	}
	if int64(len(body)) > c.maxBytes {
		return
	}
	for c.bytes+int64(len(body)) > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		ev := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.entries, ev.key)
		c.bytes -= int64(len(ev.body))
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, body: body})
	c.bytes += int64(len(body))
}

// Peek returns the memory-tier artifact for key without consulting the
// disk tier or registering any computation. The shard front-end uses it
// to serve locally-warm keys before forwarding.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key)
}

// Do returns the artifact for key. A memory-tier artifact is returned
// immediately; an in-flight identical computation is joined; a
// disk-tier artifact is verified, promoted into memory and returned;
// otherwise compute is scheduled through submit (the worker pool), and
// ErrQueueFull is returned when the pool has no room. The computation
// runs under its own context, cancelled only when every waiter has
// gone — an individual caller's ctx expiring detaches that caller
// without killing the job for the rest. Errors are never cached: a
// failed or cancelled job is forgotten so the next identical request
// retries.
func (c *Cache) Do(ctx context.Context, key string, submit func(func()) bool, compute func(context.Context) ([]byte, error)) ([]byte, CacheOutcome, error) {
	c.mu.Lock()
	if body, ok := c.lookupLocked(key); ok {
		c.mu.Unlock()
		return body, OutcomeHit, nil
	}
	if j, joined := c.live[key]; joined {
		j.refs++
		c.mu.Unlock()
		return c.wait(ctx, key, j, OutcomeJoin)
	}
	c.mu.Unlock()

	// Disk tier, outside the lock: reads are sha256-verified file IO and
	// must not serialise the whole cache. Two concurrent readers of one
	// key both succeed with identical bytes — content addressing makes
	// the race benign.
	if c.disk != nil {
		if body, ok := c.disk.Get(key); ok {
			c.mu.Lock()
			c.insertLocked(key, body)
			c.mu.Unlock()
			return body, OutcomeDisk, nil
		}
	}

	c.mu.Lock()
	// Re-check under the lock: another request may have completed or
	// registered this key while we were probing the disk.
	if body, ok := c.lookupLocked(key); ok {
		c.mu.Unlock()
		return body, OutcomeHit, nil
	}
	if j, joined := c.live[key]; joined {
		j.refs++
		c.mu.Unlock()
		return c.wait(ctx, key, j, OutcomeJoin)
	}
	jobCtx, cancel := context.WithCancel(context.Background())
	j := &job{done: make(chan struct{}), cancel: cancel, refs: 1}
	run := func() {
		body, err := compute(jobCtx)
		if err == nil && c.disk != nil {
			// Write through before announcing completion so a restart
			// immediately after a response finds the artifact on disk.
			// Best-effort: a failed write only costs a recomputation.
			c.disk.Put(key, body)
		}
		c.mu.Lock()
		j.body, j.err = body, err
		if err == nil {
			c.insertLocked(key, body)
		}
		if c.live[key] == j { // an abandoned job is gone already, its key maybe retaken
			delete(c.live, key)
		}
		c.mu.Unlock()
		close(j.done)
		cancel()
	}
	// Registration and submission are atomic under mu: if the pool
	// rejects the job nobody can have joined it, and if it is
	// accepted no concurrent identical request can start a second
	// computation. (run re-takes mu only after compute, so a
	// lightning-fast worker just blocks until we release it.)
	if !submit(run) {
		c.mu.Unlock()
		cancel()
		return nil, OutcomeMiss, ErrQueueFull
	}
	c.live[key] = j
	c.mu.Unlock()
	return c.wait(ctx, key, j, OutcomeMiss)
}

// wait blocks until the joined/started job completes or the caller's
// ctx expires; the last abandoning waiter cancels the job and, under the
// same lock that takes refs to zero, drops it from live, so that a retry
// arriving before the cancelled computation has unwound starts a job of
// its own instead of joining the doomed one.
func (c *Cache) wait(ctx context.Context, key string, j *job, outcome CacheOutcome) ([]byte, CacheOutcome, error) {
	select {
	case <-j.done:
		return j.body, outcome, j.err
	case <-ctx.Done():
		c.mu.Lock()
		j.refs--
		last := j.refs == 0
		if last && c.live[key] == j {
			delete(c.live, key)
		}
		c.mu.Unlock()
		if last {
			j.cancel()
		}
		return nil, outcome, ctx.Err()
	}
}

// Len reports the number of completed artifacts retained in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the memory-tier artifact bytes currently retained.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// MaxBytes reports the memory-tier byte budget.
func (c *Cache) MaxBytes() int64 { return c.maxBytes }

// Evictions reports how many artifacts the LRU bound has evicted.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Disk returns the persistent tier (nil when disabled).
func (c *Cache) Disk() *DiskCache { return c.disk }
