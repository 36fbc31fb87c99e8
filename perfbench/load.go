package main

// The open-loop load generator. A schedule of due times is drawn up
// front (seeded Poisson arrivals); one worker per connection takes the
// next due request, waits until it is due and sends it. When every
// connection is busy the request waits in the generator, so latency is
// timed from the due time and a stalled server is charged for the wait
// it imposes on later requests. How late the generator sends is
// recorded beside every rate.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// shot is one scheduled request and, after the phase, its outcome.
type shot struct {
	p   *payload
	due time.Duration // offset from the phase start
	id  string        // X-FSML-Request-ID

	sent, done time.Duration // offsets from the phase start
	status     int
	body       []byte
	err        error
}

// latency is the time from due to answered.
func (s *shot) latency() time.Duration { return s.done - s.due }

// lateness is how long after its due time the request was sent.
func (s *shot) lateness() time.Duration { return s.sent - s.due }

// stream is one request stream over a number of connections: light
// requests drawn by lightMix, or heavy replays. Light streams are open
// loops with Poisson arrivals. Heavy streams arrive at a fixed rate, one
// every 1/rate seconds from a seeded phase, or with rate 0 as a closed
// loop, each connection sending its next replay when the last one is
// answered.
type stream struct {
	rate  float64 // arrivals per second; 0 = closed loop
	count int     // requests to schedule
	heavy bool    // heavy replays instead of the light mix
	conns int
}

// schedule draws a stream's requests and their due times from rng.
// Heavy replays cycle through the heavy pool from a seeded offset, so
// every run replays the same mix of sharing patterns.
func schedule(rng *rand.Rand, st stream, pl *pools, idPrefix string) []*shot {
	shots := make([]*shot, st.count)
	heavyAt := rng.Intn(len(pl.byKind[kindHeavy]))
	phase := rng.Float64()
	var t float64
	for i := range shots {
		var p *payload
		if st.heavy {
			p = pl.byKind[kindHeavy][(heavyAt+i)%len(pl.byKind[kindHeavy])]
		} else {
			u, acc := rng.Float64(), 0.0
			kind := lightMix[len(lightMix)-1].kind
			for _, m := range lightMix {
				acc += m.share
				if u < acc {
					kind = m.kind
					break
				}
			}
			pool := pl.byKind[kind]
			p = pool[rng.Intn(len(pool))]
		}
		switch {
		case st.rate > 0 && st.heavy:
			t = (float64(i) + phase) / st.rate
		case st.rate > 0:
			t += rng.ExpFloat64() / st.rate
		}
		shots[i] = &shot{p: p, due: time.Duration(t * float64(time.Second)), id: fmt.Sprintf("%s-%d", idPrefix, i)}
	}
	return shots
}

// newConn returns a client that holds exactly one keep-alive
// connection, so a stream's connection count is its worker count.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// send performs one request and records its outcome.
func send(c *http.Client, base string, start time.Time, s *shot) {
	url := base + "/v1/classify"
	if s.p.kind == kindFrame {
		url = base + "/v1/classify-bin"
	}
	req, err := http.NewRequest(http.MethodPost, url+s.p.query, bytes.NewReader(s.p.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", s.p.contentType)
	req.Header.Set("X-FSML-Request-ID", s.id)
	s.sent = time.Since(start)
	resp, err := c.Do(req)
	if err != nil {
		s.done = time.Since(start)
		s.err = err
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.status = resp.StatusCode
}

// runStreams plays the streams concurrently against base and returns
// when every request has been answered, or at once when ctx ends. Each
// stream gets its own workers and connections.
func runStreams(ctx context.Context, base string, streams []stream, shots [][]*shot) (start time.Time) {
	var wg sync.WaitGroup
	start = time.Now()
	for i, st := range streams {
		queue := make(chan *shot, len(shots[i])) // sized to the sends
		for _, s := range shots[i] {
			queue <- s
		}
		close(queue)
		for w := 0; w < st.conns; w++ {
			wg.Add(1)
			go func(c *http.Client, closed bool) {
				defer wg.Done()
				defer c.CloseIdleConnections()
				for s := range queue {
					if ctx.Err() != nil {
						s.err = ctx.Err()
						continue
					}
					if closed {
						s.due = time.Since(start)
					} else if d := s.due - time.Since(start); d > 0 {
						time.Sleep(d)
					}
					send(c, base, start, s)
				}
			}(newConn(), st.rate == 0)
		}
	}
	wg.Wait()
	return start
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supported reports whether a q-quantile of n samples has at least ten
// samples beyond it, the rule every reported percentile follows.
func supported(n int, q float64) bool { return n-int(math.Ceil(float64(n)*q-1e-9)) >= 10 }

// latStats summarizes a set of shots in milliseconds.
type latStats struct {
	N                int
	P50, P90, P99    float64
	LateP99, LateMax float64
	OfferedRPS       float64
}

func summarize(shots []*shot) latStats {
	lat := make([]float64, 0, len(shots))
	late := make([]float64, 0, len(shots))
	var last time.Duration
	for _, s := range shots {
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.lateness()))
		if s.due > last {
			last = s.due
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	st := latStats{N: len(shots), P50: percentile(lat, 0.5), P90: percentile(lat, 0.9), P99: percentile(lat, 0.99),
		LateP99: percentile(late, 0.99)}
	if len(late) > 0 {
		st.LateMax = late[len(late)-1]
	}
	if last > 0 {
		st.OfferedRPS = float64(len(shots)) / last.Seconds()
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
