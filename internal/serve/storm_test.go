package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCancellationStorm fires a seeded burst of concurrent requests at a
// one-worker server with a two-slot queue; most carry a deadline short
// enough to abandon their job while it is queued or running. Once the
// burst is over the server must be as it was before it: nothing queued,
// no live computation, no extra goroutine, every registry job finished.
// Every 200 it answered carries the bytes an undisturbed server gives
// for the same request.
func TestCancellationStorm(t *testing.T) {
	requests := []struct{ endpoint, body string }{
		{"/v1/allocate", allocBody},
		{"/v1/simulate", simBody},
		{"/v1/simulate", strings.Replace(simBody, `"densitySteps": 3`, `"densitySteps": 4`, 1)},
		{"/v1/simulate", strings.Replace(simBody, "{", `{"seedOffset": 7,`, 1)},
	}
	want := make([][]byte, len(requests))
	_, ref := testServer(t, Options{})
	for i, rq := range requests {
		resp, body := postJSON(t, ref.URL+rq.endpoint, rq.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("undisturbed %s: %d (%s)", rq.endpoint, resp.StatusCode, body)
		}
		want[i] = body
	}

	s, ts := testServer(t, Options{Workers: 1, QueueLen: 2})
	client := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()

	const n = 40
	rng := rand.New(rand.NewPCG(40, 2))
	type shot struct {
		request int
		query   string
	}
	shots := make([]shot, n)
	for i := range shots {
		shots[i].request = rng.IntN(len(requests))
		if rng.IntN(5) > 0 {
			shots[i].query = fmt.Sprintf("?timeout=%dms", 1+rng.IntN(200))
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		codes = map[int]int{}
	)
	for _, sh := range shots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rq := requests[sh.request]
			resp, err := client.Post(ts.URL+rq.endpoint+sh.query, "application/json", strings.NewReader(rq.body))
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			mu.Unlock()
			switch {
			case err != nil:
				t.Error(err)
			case resp.StatusCode == http.StatusOK && !bytes.Equal(body, want[sh.request]):
				t.Errorf("%s%s: 200 with bytes %s, undisturbed %s", rq.endpoint, sh.query, body, want[sh.request])
			case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests &&
				resp.StatusCode != http.StatusGatewayTimeout:
				t.Errorf("%s%s: status %d (%s)", rq.endpoint, sh.query, resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	client.CloseIdleConnections()
	t.Logf("statuses: %v", codes)

	// unsettled names the first way the server still differs from its
	// state before the burst, or returns "".
	unsettled := func() string {
		if live := liveJobs(s.cache); live != 0 {
			return fmt.Sprintf("%d live cache jobs", live)
		}
		var scrape bytes.Buffer
		s.metrics.WritePrometheus(&scrape)
		finished := 0
		sc := bufio.NewScanner(&scrape)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "cpxserve_queue_depth 0", line == "cpxserve_jobs_active 0":
			case strings.HasPrefix(line, "cpxserve_queue_depth "), strings.HasPrefix(line, "cpxserve_jobs_active "):
				return line
			case strings.HasPrefix(line, "cpxserve_jobs_finished_total{"):
				v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
				if err != nil {
					return fmt.Sprintf("unparsable %q", line)
				}
				finished += v
			}
		}
		if finished != n {
			return fmt.Sprintf("%d of %d jobs finished", finished, n)
		}
		if g := runtime.NumGoroutine(); g > base {
			return fmt.Sprintf("%d goroutines, %d before the burst", g, base)
		}
		return ""
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		why := unsettled()
		if why == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("5s after the burst: %s", why)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
