package serve

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
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

// ErrQueueFull reports that the cache had no worker and no queue slot
// for another computation. The HTTP layer maps it to 429 Too Many
// Requests with a Retry-After hint — backpressure, not unbounded
// buffering.
var ErrQueueFull = errors.New("serve: job queue full")

// job is one admitted computation with singleflight semantics plus
// reference counting: every request waiting on it holds a ref, and
// when the last waiter abandons it (deadline, disconnect) the job's
// context is cancelled so the simulation's rank goroutines unwind
// instead of computing for nobody — or, if it is still queued, it
// leaves the queue and never runs. It is the one record of the
// computation: the registry Job of every request waiting on it reads
// its start and progress from here until that request finishes.
type job struct {
	key     string
	compute func(ctx context.Context, progress func(vt float64)) ([]byte, error)
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	refs    int
	body    []byte
	err     error

	// started is when the computation left the queue (nil while it is
	// queued), and vtBits the furthest virtual time any rank of it has
	// reached, as math.Float64bits, advanced by CAS from the telemetry
	// observer (many rank goroutines, no lock). Registry views read both
	// without the cache's mutex.
	started atomic.Pointer[time.Time]
	vtBits  atomic.Uint64
}

// observe advances j's virtual-time high-water mark. It runs on every
// progress sample of a simulation, from every rank goroutine, so it
// neither locks nor allocates.
func (j *job) observe(t float64) {
	for {
		old := j.vtBits.Load()
		if t <= math.Float64frombits(old) || j.vtBits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// CacheConfig configures the two-tier result cache and its admission
// gate.
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
	// Workers bounds concurrently running computations (< 1 selects 1;
	// a coupled simulation already fans out into many rank goroutines,
	// so a handful saturates the host).
	Workers int
	// QueueLen bounds computations admitted but not yet running (< 0
	// selects 0).
	QueueLen int
}

// Cache is the content-addressed result store and the one admission
// gate for local computation. Keys are cacheKey digests of
// canonicalised request specs; values are the exact response bytes
// first computed for that key. Determinism of the underlying model and
// simulator is what makes this sound: recomputing a key would produce
// the identical bytes, so returning the stored artifact is
// indistinguishable from re-running the job.
//
// The memory tier is an lru weighed in artifact bytes (the unbounded
// growth the old implementation admitted to would sink the server under
// sweep load); under it sits an optional disk tier whose artifacts
// survive process restarts. Content addressing makes every cross-tier race benign:
// any two writers of one key write identical bytes.
type Cache struct {
	mu   sync.Mutex
	mem  *lru[[]byte]
	live map[string]*job
	disk *DiskCache

	workers, queueLen int
	running           int
	queue             []*job        // admitted, not yet running; FIFO
	room              chan struct{} // closed when a worker or slot frees; nil until a blocked caller waits
	closed            bool
	admitted          sync.WaitGroup // queued and running jobs, for Close
}

// NewCache returns an empty cache with the given bounds and tiers.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultCacheMaxBytes
	}
	return &Cache{
		mem:      newLRU[[]byte](cfg.MaxBytes),
		live:     make(map[string]*job),
		disk:     cfg.Disk,
		workers:  max(cfg.Workers, 1),
		queueLen: max(cfg.QueueLen, 0),
	}
}

// Peek returns the memory-tier artifact for key without consulting the
// disk tier or registering any computation. The shard front-end uses it
// to serve locally-warm keys before forwarding.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.get(key)
}

// Do returns the artifact for key on behalf of jb, the request's
// registry job (nil when there is none). A memory-tier artifact is returned
// immediately; an in-flight identical computation is joined; a
// disk-tier artifact is verified, promoted into memory and returned.
// Otherwise compute is admitted: it starts at once if a worker is free,
// else takes a queue slot, else Do returns ErrQueueFull — or, with
// block set, waits under ctx for room. The computation runs under its
// own context, cancelled only when every waiter has gone — an
// individual caller's ctx expiring detaches that caller without killing
// the job for the rest. jb is attached to the computation it starts or
// joins, and views it until jb finishes; compute reports its virtual-time
// progress to that computation. Errors are never cached: a failed or
// cancelled job is forgotten so the next identical request retries.
func (c *Cache) Do(ctx context.Context, key string, block bool, jb *Job, compute func(ctx context.Context, progress func(vt float64)) ([]byte, error)) ([]byte, CacheOutcome, error) {
	probed := c.disk == nil
	c.mu.Lock()
	for {
		if body, ok := c.mem.get(key); ok {
			c.mu.Unlock()
			return body, OutcomeHit, nil
		}
		if j, joined := c.live[key]; joined {
			j.refs++
			jb.attach(j)
			c.mu.Unlock()
			return c.wait(ctx, j, OutcomeJoin)
		}
		if !probed {
			// Disk tier, outside the lock: reads are sha256-verified file
			// IO and must not serialise the whole cache. Two concurrent
			// readers of one key both succeed with identical bytes —
			// content addressing makes the race benign. On a disk miss,
			// look again: another request may have completed or
			// registered the key meanwhile.
			probed = true
			c.mu.Unlock()
			if body, ok := c.disk.Get(key); ok {
				c.mu.Lock()
				c.mem.put(key, body, int64(len(body)))
				c.mu.Unlock()
				return body, OutcomeDisk, nil
			}
			c.mu.Lock()
			continue
		}
		// Registration and admission are atomic under mu: a refused job
		// was never joinable, and an admitted one is the only computation
		// of its key. A worker is free only while the queue is empty, so
		// nothing overtakes a queued job.
		free := c.running < c.workers
		if !c.closed && (free || len(c.queue) < c.queueLen) {
			jobCtx, cancel := context.WithCancel(context.Background())
			j := &job{key: key, compute: compute, ctx: jobCtx, cancel: cancel, done: make(chan struct{}), refs: 1}
			c.live[key] = j
			jb.attach(j)
			c.admitted.Add(1)
			if free {
				c.running++
				go c.run(j)
			} else {
				c.queue = append(c.queue, j)
			}
			c.mu.Unlock()
			return c.wait(ctx, j, OutcomeMiss)
		}
		if c.closed || !block {
			c.mu.Unlock()
			return nil, OutcomeMiss, ErrQueueFull
		}
		// Wait for room, then look again from the top.
		if c.room == nil {
			c.room = make(chan struct{})
		}
		room := c.room
		c.mu.Unlock()
		select {
		case <-room:
		case <-ctx.Done():
			return nil, OutcomeMiss, ctx.Err()
		}
		c.mu.Lock()
	}
}

// run computes j on one worker slot, then the queue's head while there
// is one.
func (c *Cache) run(j *job) {
	for j != nil {
		//lint:allow determinism queue-wait accounting measures host time by definition; nothing feeds the virtual clock
		now := time.Now()
		j.started.Store(&now)
		body, err := j.compute(j.ctx, j.observe)
		if err == nil && c.disk != nil {
			// Write through before announcing completion so a restart
			// immediately after a response finds the artifact on disk.
			// Best-effort: a failed write only costs a recomputation.
			c.disk.Put(j.key, body)
		}
		c.mu.Lock()
		j.body, j.err = body, err
		if err == nil {
			c.mem.put(j.key, body, int64(len(body)))
		}
		if c.live[j.key] == j { // an abandoned job is gone already, its key maybe retaken
			delete(c.live, j.key)
		}
		close(j.done)
		j.cancel()
		c.admitted.Done()
		j = nil
		if len(c.queue) > 0 {
			j = c.queue[0]
			c.queue = slices.Delete(c.queue, 0, 1)
		} else {
			c.running--
		}
		c.freeLocked()
		c.mu.Unlock()
	}
}

// wait blocks until the joined/started job completes or the caller's
// ctx expires. The last abandoning waiter cancels the job and, under
// the same lock that takes refs to zero, drops it from live, so that a
// retry arriving before the cancelled computation has unwound starts a
// job of its own instead of joining the doomed one; a job still queued
// leaves the queue at once and never runs.
func (c *Cache) wait(ctx context.Context, j *job, outcome CacheOutcome) ([]byte, CacheOutcome, error) {
	select {
	case <-j.done:
		return j.body, outcome, j.err
	case <-ctx.Done():
		c.mu.Lock()
		j.refs--
		if j.refs == 0 {
			if c.live[j.key] == j {
				delete(c.live, j.key)
			}
			j.cancel()
			if i := slices.Index(c.queue, j); i >= 0 {
				c.queue = slices.Delete(c.queue, i, i+1)
				c.admitted.Done()
				c.freeLocked()
			}
		}
		c.mu.Unlock()
		return nil, outcome, ctx.Err()
	}
}

// freeLocked wakes every caller blocked for room.
func (c *Cache) freeLocked() {
	if c.room != nil {
		close(c.room)
		c.room = nil
	}
}

// Close refuses new computations — blocked callers get ErrQueueFull —
// and waits for the admitted ones, queued and running, to finish: the
// draining half of graceful shutdown.
func (c *Cache) Close() {
	c.mu.Lock()
	c.closed = true
	c.freeLocked()
	c.mu.Unlock()
	c.admitted.Wait()
}

// Depth reports the computations admitted but not yet running.
func (c *Cache) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Capacity reports the queue bound.
func (c *Cache) Capacity() int { return c.queueLen }

// Len reports the number of completed artifacts retained in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem.items)
}

// Bytes reports the memory-tier artifact bytes currently retained.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.weight
}

// MaxBytes reports the memory-tier byte budget.
func (c *Cache) MaxBytes() int64 { return c.mem.max }

// Evictions reports how many artifacts the LRU bound has evicted.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.evictions
}

// Disk returns the persistent tier (nil when disabled).
func (c *Cache) Disk() *DiskCache { return c.disk }
