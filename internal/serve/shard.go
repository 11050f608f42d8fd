package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ringReplicas is how many virtual points each shard contributes to the
// hash ring. Enough that a handful of shards splits the key space
// near-evenly; removal of one shard only reassigns its own arcs.
const ringReplicas = 64

// Shard is one worker process the front-end can route jobs to.
type Shard struct {
	// URL is the shard's base address (e.g. http://127.0.0.1:8081).
	URL string

	healthy atomic.Bool
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint64
	shard *Shard
}

// ShardSet routes jobs to worker shards by consistent hashing of the
// canonical cache key: identical scenarios always land on the shard
// whose in-memory cache is warm for them, and adding or removing a
// shard only remaps the arcs that touched it. Health is tracked two
// ways — a background /healthz prober and passive demotion on forward
// errors — and routing walks the ring past unhealthy shards, so a dead
// shard degrades its keys to the next one (or, with every shard down,
// to local execution by the caller).
type ShardSet struct {
	shards []*Shard
	ring   []ringPoint
	client *http.Client
	log    *slog.Logger

	stopOnce sync.Once
	stop     chan struct{}
}

// NewShardSet builds the ring over the given base URLs and starts the
// health prober at the given interval. Shards start healthy and are
// demoted by evidence: a failed probe or a failed forward.
func NewShardSet(urls []string, probeInterval time.Duration, log *slog.Logger) (*ShardSet, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("serve: empty shard list")
	}
	if probeInterval <= 0 {
		probeInterval = 2 * time.Second
	}
	ss := &ShardSet{
		client: &http.Client{},
		log:    log,
		stop:   make(chan struct{}),
	}
	seen := make(map[string]bool, len(urls))
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("serve: shard URL %q must be absolute (scheme://host[:port])", raw)
		}
		base := u.Scheme + "://" + u.Host
		if seen[base] {
			return nil, fmt.Errorf("serve: duplicate shard %q", base)
		}
		seen[base] = true
		sh := &Shard{URL: base}
		sh.healthy.Store(true)
		ss.shards = append(ss.shards, sh)
		for r := 0; r < ringReplicas; r++ {
			ss.ring = append(ss.ring, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", base, r)), shard: sh})
		}
	}
	sort.Slice(ss.ring, func(i, j int) bool { return ss.ring[i].hash < ss.ring[j].hash })
	go ss.probe(probeInterval)
	return ss, nil
}

// ringHash maps a string to its position on the ring: the first 8 bytes
// of its sha256, so ring geometry is identical across processes and
// restarts (no per-process seed).
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Close stops the health prober.
func (ss *ShardSet) Close() { ss.stopOnce.Do(func() { close(ss.stop) }) }

// probe polls every shard's /healthz until Close.
func (ss *ShardSet) probe(interval time.Duration) {
	//lint:allow determinism shard health probing paces host-side HTTP checks; nothing feeds the virtual clock
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ss.stop:
			return
		case <-ticker.C:
			for _, sh := range ss.shards {
				was := sh.healthy.Load()
				now := ss.probeOne(sh, interval)
				if was != now {
					ss.log.Info("shard health changed", "shard", sh.URL, "healthy", now)
				}
			}
		}
	}
}

func (ss *ShardSet) probeOne(sh *Shard, interval time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), interval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", sh.URL+"/healthz", nil)
	if err != nil {
		sh.healthy.Store(false)
		return false
	}
	resp, err := ss.client.Do(req)
	ok := err == nil && resp.StatusCode == 200
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	sh.healthy.Store(ok)
	return ok
}

// Route returns the healthy shard owning key's arc, walking the ring
// past unhealthy shards; nil when every shard is down (the caller then
// degrades to local execution).
func (ss *ShardSet) Route(key string) *Shard {
	h := ringHash(key)
	n := len(ss.ring)
	start := sort.Search(n, func(i int) bool { return ss.ring[i].hash >= h })
	for i := 0; i < n; i++ {
		sh := ss.ring[(start+i)%n].shard
		if sh.healthy.Load() {
			return sh
		}
	}
	return nil
}

// Forward posts a canonical request body to the shard's endpoint and
// returns the shard's verdict verbatim: HTTP status, response body and
// cache disposition. The caller's remaining deadline travels as
// ?timeout=, so the shard gives the job exactly the time the caller
// still has rather than its own default. A transport error demotes the
// shard (passive health) and is returned for the caller to degrade on —
// unless it is the caller's own context ending, which says nothing about
// the shard; a non-200 status is the shard's answer, not a shard failure.
// An answer longer than maxBodyBytes is a transport error too: the hop
// bounds what it reads as the front-end bounds what it accepts.
func (ss *ShardSet) Forward(ctx context.Context, sh *Shard, endpoint string, canonical []byte) (status int, body []byte, outcome CacheOutcome, err error) {
	target := sh.URL + endpoint
	if deadline, ok := ctx.Deadline(); ok {
		//lint:allow determinism a forwarded request's remaining deadline is host time by definition; nothing feeds the virtual clock
		target += "?timeout=" + url.QueryEscape(time.Until(deadline).String())
	}
	req, err := http.NewRequestWithContext(ctx, "POST", target, bytes.NewReader(canonical))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ss.client.Do(req)
	if err == nil {
		defer resp.Body.Close()
		body, err = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
		if err == nil && len(body) > maxBodyBytes {
			err = fmt.Errorf("shard %s answer exceeds %d bytes", sh.URL, maxBodyBytes)
		}
	}
	if err != nil {
		if ctx.Err() == nil {
			sh.healthy.Store(false)
		}
		return 0, nil, "", err
	}
	return resp.StatusCode, body, CacheOutcome(resp.Header.Get("X-Cache")), nil
}
