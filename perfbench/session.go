package main

// The serving half of a run: boot `fsml serve` on a fresh registry,
// time its set-up, then play the light phases, the rate ladder and the
// heavy replays, checking every answer.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"syscall"
	"time"
)

// parseList reads the modeled programs and their paper labels from
// `fsml list` (rows with a "paper:" label that the 3-class sweep runs).
func parseList(out []byte) (progs, labels []string) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || f[2] != "paper:" || strings.Contains(sc.Text(), "-ensemble") {
			continue
		}
		progs = append(progs, f[1])
		labels = append(labels, f[3])
	}
	return progs, labels
}

// parseVerdicts reads "<program> <class> (...)" sweep lines.
func parseVerdicts(out []byte) map[string]string {
	got := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 {
			got[f[0]] = f[1]
		}
	}
	return got
}

// phase is one measured light or heavy stream set.
type phase struct {
	name   string
	rate   float64 // nominal light rate
	light  []*shot
	heavy  []*shot
	before scrape
	after  scrape
	stats  latStats // light requests
	hstats latStats // heavy requests
	pass   bool     // p99 and generator lateness within the limit, no failures
	failed int
}

// booted is one `fsml serve` process of the run: its set-up split and
// the /metrics scrapes taken after set-up and before it stopped.
type booted struct {
	boot, lazyTrain, lazyEns time.Duration
	setup                    time.Duration // exec to both first answers
	first, last              scrape
}

// withServer boots `fsml serve` on a fresh registry, times its set-up,
// runs fn against it, and stops it.
func (st *runState) withServer(ctx context.Context, c *http.Client, pl *pools, round int, fn func(base string) error) (*booted, error) {
	sp := st.tr.open(fmt.Sprintf("serve.setup%d", round), 0)
	srv, err := startServer(st.cfg.fsml, st.dir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	go func() {
		select {
		case <-ctx.Done():
			_ = srv.cmd.Process.Signal(syscall.SIGTERM)
		case <-srv.exited:
		}
	}()
	if err := srv.waitHealthy(c, 60*time.Second); err != nil {
		return nil, err
	}
	b := &booted{boot: time.Since(srv.started)}
	b.first = getScrape(c, srv.base)

	// First 3-class and first ensemble classify: each lazily trains its
	// detector into the empty registry.
	first := func(p *payload, name string) (time.Duration, error) {
		s := &shot{p: p, id: fmt.Sprintf("pb%d-setup%d-%s", st.cfg.seed, round, name)}
		t0 := time.Now()
		send(c, srv.base, t0, s)
		st.tr.add("http."+name, sp, t0.Sub(st.tr.epoch), time.Since(st.tr.epoch), s.id)
		st.op(st.chk.check(s))
		if s.err != nil || s.status != http.StatusOK {
			return 0, fmt.Errorf("set-up %s classify failed: status %d %v %.200s", name, s.status, s.err, s.body)
		}
		return s.done - s.sent, nil
	}
	if b.lazyTrain, err = first(pl.byKind[kindVector][0], "vector"); err != nil {
		return nil, err
	}
	if b.lazyEns, err = first(pl.byKind[kindEnsemble][0], "ensemble"); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	b.setup = time.Since(srv.started)
	st.tr.close(sp)

	if err := fn(srv.base); err != nil {
		return nil, err
	}
	b.last = getScrape(c, srv.base)
	c.CloseIdleConnections()
	st.rss("serve", srv.stop())
	stopped = true
	return b, ctx.Err()
}

// serve runs the serving rounds. Each round boots its own server, so
// set-up is timed once a round and setup_s is the median; the offline
// repetitions run between rounds, with no server up.
func (st *runState) serve(ctx context.Context, pl *pools) error {
	c := newConn()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(st.cfg.seed*7919 + 17))
	scale := float64(st.cfg.seconds) / nominalSeconds
	n := func(base int) int { return atLeast(float64(base)*scale, 20) }

	// The rounds spread set-ups, windows and replays over the run, with
	// an offline repetition between the first two, so a burst of host
	// noise lands in one set-up, window or repetition rather than in
	// one whole metric.
	var lows, highs, heavies, rungs []*phase
	var servers []*booted
	for r := 0; r < rounds; r++ {
		b, err := st.withServer(ctx, c, pl, r, func(base string) error {
			run := func(name string, rate float64, count, conns, heavy int, heavyRate float64) *phase {
				streams := []stream{{rate: rate, count: count, conns: conns}}
				if count == 0 {
					streams = streams[:0]
				}
				if heavy > 0 {
					streams = append(streams, stream{rate: heavyRate, count: heavy, heavy: true, conns: 1})
				}
				p := st.play(ctx, c, base, name, rng, pl, streams)
				p.rate = rate
				return p
			}
			if heavyBeside[st.cfg.workload] {
				// The replays are spread over the light window's length.
				window := float64(n(windowReqs)) / lowRPS
				lows = append(lows, run(fmt.Sprintf("low+heavy%d", r), lowRPS, n(windowReqs), 1,
					n(heavyPerWindow), float64(n(heavyPerWindow))/window))
				heavies = append(heavies, lows[r])
			} else {
				lows = append(lows, run(fmt.Sprintf("low%d", r), lowRPS, n(windowReqs), 2, 0, 0))
			}
			highs = append(highs, run(fmt.Sprintf("high%d", r), highRPS, n(windowReqs), 2, 0, 0))
			if !heavyBeside[st.cfg.workload] {
				// On their own, replays run back to back on one connection:
				// their latency is the replay's service time.
				heavies = append(heavies, run(fmt.Sprintf("heavy%d", r), 0, 0, 0, n(heavyPerWindow), 0))
			}
			if r == rounds-1 && ctx.Err() == nil {
				rungs = st.ladder(func(rate float64) *phase {
					return run(fmt.Sprintf("rung%.0f", rate), rate, n(rungReqs), 2, 0, 0)
				})
			}
			return ctx.Err()
		})
		if err != nil {
			return err
		}
		servers = append(servers, b)
		if r < offlineReps-1 {
			if err := st.offlineRep(ctx); err != nil {
				return err
			}
		}
	}
	bases := highs
	if !heavyBeside[st.cfg.workload] {
		bases = append(append([]*phase{}, lows...), highs...)
	}
	phases := append(append(append([]*phase{}, lows...), highs...), rungs...)
	if !heavyBeside[st.cfg.workload] {
		phases = append(phases, heavies...)
	}

	var setups, boots, lazyTrains, lazyEnss []float64
	var setupRows []map[string]any
	for _, b := range servers {
		setups = append(setups, b.setup.Seconds())
		boots = append(boots, b.boot.Seconds())
		lazyTrains = append(lazyTrains, b.lazyTrain.Seconds())
		lazyEnss = append(lazyEnss, b.lazyEns.Seconds())
		setupRows = append(setupRows, map[string]any{"setup_s": b.setup.Seconds(), "boot_s": b.boot.Seconds(),
			"lazy_train_s": b.lazyTrain.Seconds(), "lazy_ensemble_s": b.lazyEns.Seconds()})
	}
	st.e2e["setup_s"] = median(setups)
	st.setLayer("serve.boot_s", median(boots), true)
	st.setLayer("serve.lazy_train_s", median(lazyTrains), true)
	st.setLayer("serve.lazy_ensemble_s", median(lazyEnss), true)

	// The host's speed drifts by up to 2x for tens of seconds (CPU
	// steal, neighbours on shared cores), and that only ever adds
	// latency, so each p50 is read from its quietest round, the one
	// where it is lowest: a slowdown the program causes shows in every
	// round, the host's in some.
	p50 := func(p *phase) float64 { return p.stats.P50 }
	st.e2e["p50_ms_low"], st.e2e["p50_ms_high"] = quietest(lows, p50), quietest(highs, p50)
	st.e2e["heavy_p50_ms"] = quietest(heavies, func(p *phase) float64 { return p.hstats.P50 })
	st.kindP50s("p50_ms_low", lows)
	st.kindP50s("p50_ms_high", highs)
	// A window's p99 and the replays' p90 need more samples than one
	// round holds, so they pool the rounds.
	pooled := func(ps []*phase, heavy bool) latStats {
		var shots []*shot
		for _, p := range ps {
			if heavy {
				shots = append(shots, p.heavy...)
			} else {
				shots = append(shots, p.light...)
			}
		}
		return summarize(shots)
	}
	ls, hs := pooled(lows, false), pooled(heavies, true)
	st.e2e["p99_ms_low"], st.e2e["p99_ms_high"], st.e2e["heavy_p90_ms"] = ls.P99, pooled(highs, false).P99, hs.P90
	st.e2e["max_rps"] = st.maxRPS(append(bases, rungs...))
	st.serveLayers(lows, servers)
	st.desc["samples"] = map[string]any{
		"light_per_window": n(windowReqs), "light_per_rung": n(rungReqs), "windows": rounds,
		"pooled_per_rate": ls.N, "heavy": hs.N, "setups": len(servers),
		"p99_supported": supported(ls.N, 0.99), "heavy_p90_supported": supported(hs.N, 0.9),
	}

	var rows []map[string]any
	for _, p := range phases {
		row := map[string]any{"phase": p.name, "offered_rps": round3(p.stats.OfferedRPS), "requests": p.stats.N,
			"p50_ms": round3(p.stats.P50), "p99_ms": round3(p.stats.P99), "p99_supported": supported(p.stats.N, 0.99),
			"late_p99_ms": round3(p.stats.LateP99), "late_max_ms": round3(p.stats.LateMax), "pass": p.pass, "failed": p.failed}
		if len(p.heavy) > 0 {
			row["heavy_requests"], row["heavy_p50_ms"], row["heavy_p90_ms"] = p.hstats.N, round3(p.hstats.P50), round3(p.hstats.P90)
			row["heavy_p90_supported"] = supported(p.hstats.N, 0.9)
			row["heavy_late_p99_ms"] = round3(p.hstats.LateP99)
		}
		rows = append(rows, row)
	}
	st.desc["phases"] = rows
	st.desc["setup"] = setupRows
	return nil
}

func atLeast(v float64, floor int) int {
	if n := int(math.Ceil(v)); n > floor {
		return n
	}
	return floor
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// play schedules and runs one phase's streams (the first is the light
// stream unless it carries heavy kinds only) and checks every answer.
func (st *runState) play(ctx context.Context, c *http.Client, base, name string, rng *rand.Rand, pl *pools, streams []stream) *phase {
	p := &phase{name: name}
	shots := make([][]*shot, len(streams))
	for i, sm := range streams {
		shots[i] = schedule(rng, sm, pl, fmt.Sprintf("pb%d-%s-%d", st.cfg.seed, name, i))
		if sm.heavy {
			p.heavy = shots[i]
		} else {
			p.light = shots[i]
		}
	}
	p.before = getScrape(c, base)
	sp := st.tr.open("phase."+name, 0)
	start := runStreams(ctx, base, streams, shots)
	st.tr.close(sp)
	p.after = getScrape(c, base)
	off := start.Sub(st.tr.epoch)
	for _, group := range shots {
		for _, s := range group {
			ok := st.chk.check(s)
			st.op(ok)
			if !ok {
				p.failed++
			}
			st.tr.add("http."+kindNames[s.p.kind], sp, off+s.sent, off+s.done, s.id)
		}
	}
	if len(p.light) > 0 {
		p.stats = summarize(p.light)
	}
	if len(p.heavy) > 0 {
		p.hstats = summarize(p.heavy)
	}
	p.pass = len(p.light) > 0 && p.failed == 0 && p.stats.P99 <= latencySLO && p.stats.LateP99 < latencySLO
	return p
}

// kindP50s reports, per light request kind, the p50 over every window
// of one rate, as <prefix>.<kind>.
func (st *runState) kindP50s(prefix string, windows []*phase) {
	for _, m := range lightMix {
		var shots []*shot
		for _, p := range windows {
			for _, s := range p.light {
				if s.p.kind == m.kind {
					shots = append(shots, s)
				}
			}
		}
		st.setLayer(prefix+"."+kindNames[m.kind], summarize(shots).P50, len(shots) > 0)
	}
}

// quietest returns the lowest value of one percentile over windows.
func quietest(ps []*phase, pct func(*phase) float64) float64 {
	q := math.Inf(1)
	for _, p := range ps {
		q = math.Min(q, pct(p))
	}
	return q
}

// ladder climbs the light rate on two connections from ladderStart by
// ladderStep until ladderMisses rungs in a row miss the latency limit
// (a single miss may be host noise), or the rate passes maxRungRPS.
func (st *runState) ladder(rung func(rate float64) *phase) []*phase {
	var out []*phase
	misses := 0
	for r := ladderStart; r <= maxRungRPS && misses < ladderMisses; r *= ladderStep {
		p := rung(r)
		out = append(out, p)
		if p.pass {
			misses = 0
		} else {
			misses++
		}
	}
	return out
}

// maxRPS is the highest offered rate meeting the p99 limit: between the
// fastest passing phase and the slowest missing one above it, the rate
// where p99 (or generator lateness, whichever is worse) crosses the
// limit, interpolated linearly in log latency.
func (st *runState) maxRPS(phases []*phase) float64 {
	var pass, fail *phase
	for _, p := range phases {
		if p.pass && (pass == nil || p.rate > pass.rate) {
			pass = p
		}
	}
	if pass == nil {
		return 0
	}
	for _, p := range phases {
		if !p.pass && p.rate > pass.rate && (fail == nil || p.rate < fail.rate) {
			fail = p
		}
	}
	if fail == nil {
		st.desc["max_rps_capped"] = true
		return pass.rate
	}
	worst := func(p *phase) float64 { return math.Max(p.stats.P99, p.stats.LateP99) }
	pa, pb := worst(pass), worst(fail)
	if pb <= pa || pa <= 0 || fail.failed > 0 {
		return pass.rate
	}
	return pass.rate + (fail.rate-pass.rate)*math.Log(latencySLO/pa)/math.Log(pb/pa)
}

// serveLayers derives the serving per-layer metrics from the low-rate
// windows' /metrics deltas and client timings, plus counters summed
// over each server from set-up to stop.
func (st *runState) serveLayers(lows []*phase, servers []*booted) {
	var reqSum, reqN, qSum, bSum, bN, cSum, cN, client float64
	okReq, okQ, okB, okC := true, true, true, true
	var shots []*shot
	var late []float64
	for _, p := range lows {
		_, s, n, ok := histMean(p.before, p.after, "fsml_request_seconds")
		reqSum, reqN, okReq = reqSum+s, reqN+n, okReq && ok
		_, s, _, ok = histMean(p.before, p.after, "fsml_batch_queue_seconds")
		qSum, okQ = qSum+s, okQ && ok
		_, s, n, ok = histMean(p.before, p.after, "fsml_batch_size")
		bSum, bN, okB = bSum+s, bN+n, okB && ok
		_, s, n, ok = histMean(p.before, p.after, "fsml_stage_classify_seconds")
		cSum, cN, okC = cSum+s, cN+n, okC && ok
		shots = append(append(shots, p.light...), p.heavy...)
		late = append(late, p.stats.LateP99)
	}
	if !okQ && !hasPrefix(servers[len(servers)-1].last, "fsml_batch_") {
		// A server without the batch queue (every fsml_batch_* series
		// gone) makes no request wait in one: the wait is a measured 0
		// and request time splits into classify stage and the rest.
		qSum, okQ = 0, true
		st.desc["queue_wait"] = "no fsml_batch_* series: no batch queue, wait 0"
	}
	reqMean := reqSum / reqN
	st.setLayer("serve.request_us", reqMean*1e6, okReq)
	st.setLayer("serve.queue_wait_share", qSum/reqSum, okQ && okReq)
	st.setLayer("serve.batch_size_mean", bSum/bN, okB)
	st.setLayer("serve.classify_stage_us", cSum/cN*1e6, okC)
	st.setLayer("serve.other_us", (reqSum-qSum-cSum)/reqN*1e6, okReq && okQ && okC)
	for _, s := range shots {
		client += float64(s.done - s.sent)
	}
	if len(shots) > 0 {
		client /= float64(len(shots)) * float64(time.Microsecond)
	}
	st.setLayer("serve.client_gap_us", client-reqMean*1e6, okReq && len(shots) > 0)
	st.setLayer("gen.late_p99_ms", median(late), len(late) > 0)

	var hits, misses, shed, errs float64
	okH, okM, scraped := true, true, true
	for _, b := range servers {
		h, ok1 := delta(b.first, b.last, "fsml_registry_hits_total")
		m, ok2 := delta(b.first, b.last, "fsml_registry_misses_total")
		hits, misses, okH, okM = hits+h, misses+m, okH && ok1, okM && ok2
		// A counter with no series yet has counted nothing.
		sh, _ := deltaPrefix(b.first, b.last, "fsml_shed_", "_total")
		e, _ := delta(b.first, b.last, "fsml_request_errors_total")
		shed, errs, scraped = shed+sh, errs+e, scraped && len(b.last) > 0
	}
	st.setLayer("serve.registry_hit_ratio", hits/(hits+misses), okH && okM && hits+misses > 0)
	st.setLayer("resilience.shed", shed, scraped)
	st.setLayer("serve.errors", errs, scraped)
}
