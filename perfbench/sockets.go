package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

// pairStarts is how many times a socket run starts its pair of
// daemons. setup_s is the median of their set-up times, and each pair
// takes an equal share of the measured time.
const pairStarts = 10

// socketWorkload is ldns-hit or chain-miss: real dnsd processes on
// loopback, driven by the generator.
type socketWorkload struct {
	name   string
	hit    bool
	rate   float64 // open-loop offered rate, queries per second
	window int     // queries in flight: always, closed loop; at most, open loop
}

// genSockets is the generator's socket count. One flow, with at most
// window queries in flight, varied least from run to run on a shared
// 2-CPU host; the generator still supports more.
const genSockets = 1

// streams returns the per-socket query streams of one generator. Every
// generator in a run gets a distinct tag so miss names never repeat.
func (w *socketWorkload) streams(seed int64, topo *topology, hot *hotSet, tag string) func(int) stream {
	return func(sock int) stream {
		s := seed*1_000_003 + int64(sock)*7 + int64(len(tag))*131
		for _, c := range tag {
			s = s*31 + int64(c)
		}
		if w.hit {
			return &hitStream{set: hot, rng: rand.New(rand.NewSource(s))}
		}
		return newMissStream(s, fmt.Sprintf("%s%d", tag, sock), topo)
	}
}

// warm brings a freshly started pair to steady state: ldns-hit asks
// every hot-set question once, so later queries are cache hits;
// chain-miss sends a burst of misses through the whole chain.
func (w *socketWorkload) warm(r *run, addr netip.AddrPort, env *chainEnv, seed int64, hot *hotSet, tag string) error {
	nsock := genSockets
	streams := w.streams(seed, env.topo, hot, tag)
	spec := phaseSpec{window: 8, dur: 20 * time.Second, limit: 1000}
	if w.hit {
		qs := hot.warmup()
		streams = func(sock int) stream {
			return &sliceStream{qs: qs[sock*len(qs)/nsock : (sock+1)*len(qs)/nsock]}
		}
		spec.limit = len(qs) / nsock
	}
	g, err := newGenerator(addr, nsock, env.topo, streams)
	if err != nil {
		return err
	}
	defer g.close()
	res, err := g.run(spec)
	if err != nil {
		return err
	}
	r.add(res)
	return nil
}

// setup starts a pair, waits for the first correct answer through the
// chain and warms it; it returns the pair and the seconds it took.
func (w *socketWorkload) setup(r *run, env *chainEnv, seed int64, hot *hotSet, tag string) (*chainPair, float64, error) {
	t0 := time.Now()
	pair, err := env.start()
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(pair.addr, env.topo, pair.alive); err != nil {
		pair.stop()
		return nil, 0, err
	}
	if err := w.warm(r, pair.addr, env, seed, hot, tag); err != nil {
		pair.stop()
		return nil, 0, err
	}
	return pair, time.Since(t0).Seconds(), nil
}

// drive runs a phase as k parts of spec.dur/k, each from a fresh
// generator on new sockets, and returns the parts and their merge.
// One flow's throughput and tail latency tend to stay in one of
// several states for the flow's lifetime, so fresh flows give
// independent draws.
func (w *socketWorkload) drive(r *run, addr netip.AddrPort, env *chainEnv, seed int64, hot *hotSet, tag string, spec phaseSpec, k int) ([]*phaseResult, *phaseResult, error) {
	spec.dur /= time.Duration(k)
	total := &phaseResult{fails: map[string]int{}}
	var parts []*phaseResult
	for i := 0; i < k; i++ {
		g, err := newGenerator(addr, genSockets, env.topo, w.streams(seed, env.topo, hot, fmt.Sprintf("%s%d-", tag, i)))
		if err != nil {
			return nil, nil, err
		}
		res, err := g.run(spec)
		g.close()
		if err != nil {
			return nil, nil, err
		}
		r.add(res)
		parts = append(parts, res)
		total.merge(res)
	}
	return parts, total, nil
}

// parts splits a phase of length d into one-second parts.
func parts(d time.Duration) int { return max(1, int(d/time.Second)) }

func (w *socketWorkload) closedSpec(d time.Duration) phaseSpec {
	return phaseSpec{window: w.window, dur: d}
}

func (w *socketWorkload) openSpec(d time.Duration) phaseSpec {
	return phaseSpec{rate: w.rate, window: w.window, dur: d}
}

// Quartiles parts of a run are summarized by. The host's CPUs may be
// shared, and interference from outside only ever removes throughput
// and adds latency, in bursts that spoil a few parts of a run. So a
// latency percentile is the lower quartile over the open-loop parts,
// the program's figure in the quarter of the run least disturbed, and
// the testbed's rate the upper quartile over its rounds.
const (
	goodputQuartile = 75
	latencyQuartile = 25
)

// acrossParts applies f to every part and returns the pct-th
// percentile of the values, and the values in part order.
func acrossParts(parts []*phaseResult, pct float64, f func(*phaseResult) float64) (float64, []float64) {
	var v []float64
	for _, p := range parts {
		v = append(v, f(p))
	}
	return percentile(slices.Clone(v), pct), v
}

func cpuPerQuery(cpu time.Duration, answered int) float64 {
	return ratio(float64(cpu.Microseconds()), float64(answered))
}

// measure runs the untraced end-to-end phases. The daemons are
// started pairStarts times; each pair, once warm, takes an equal share
// of the measured time, half closed loop for goodput and half open
// loop at the fixed rate (in two parts) for latency and CPU per query,
// and is then stopped. A pair's goodput varied more from one start to
// the next than within one start, so goodput is the median over the
// starts; spreading the phases over the whole run and over many starts
// keeps one slow stretch of the host, or one start, from deciding a
// metric.
func (w *socketWorkload) measure(r *run, env *chainEnv, seed int64, seconds time.Duration) error {
	hot := newHotSet(seed, env.topo)
	share := seconds / pairStarts
	closedDur := share / 2
	openDur := share - closedDur
	var (
		setups, rss            []float64
		closedParts, openParts []*phaseResult
		closed                 = &phaseResult{fails: map[string]int{}}
		open                   = &phaseResult{fails: map[string]int{}}
		cpu                    time.Duration
		hwms                   [][2]float64
	)
	for i := 0; i < pairStarts; i++ {
		pair, s, err := w.setup(r, env, seed, hot, fmt.Sprintf("w%d-", i))
		if err != nil {
			return err
		}
		setups = append(setups, s)
		after, err := func() (*chainSample, error) {
			defer pair.stop()
			cp, c, err := w.drive(r, pair.addr, env, seed, hot, fmt.Sprintf("c%d-", i), w.closedSpec(closedDur), 1)
			if err != nil {
				return nil, err
			}
			closedParts = append(closedParts, cp...)
			closed.merge(c)
			mid, err := pair.sample()
			if err != nil {
				return nil, err
			}
			op, o, err := w.drive(r, pair.addr, env, seed, hot, fmt.Sprintf("o%d-", i), w.openSpec(openDur), 2)
			if err != nil {
				return nil, err
			}
			openParts = append(openParts, op...)
			open.merge(o)
			after, err := pair.sample()
			if err != nil {
				return nil, err
			}
			cpu += after.ldns.cpu - mid.ldns.cpu + after.cdns.cpu - mid.cdns.cpu
			return after, nil
		}()
		if err != nil {
			return err
		}
		l, c := float64(after.ldns.hwmKB)/1024, float64(after.cdns.hwmKB)/1024
		hwms = append(hwms, [2]float64{l, c})
		rss = append(rss, max(l, c))
	}

	goodput, goodputs := acrossParts(closedParts, 50, (*phaseResult).goodput)
	p50, _ := acrossParts(openParts, latencyQuartile, func(p *phaseResult) float64 { return p.latency(50) })
	p90, p90s := acrossParts(openParts, latencyQuartile, func(p *phaseResult) float64 { return p.latency(90) })
	r.set("setup_s", median(setups))
	r.set("goodput_qps", goodput)
	r.set("server_cpu_us_per_q", cpuPerQuery(cpu, open.ok))
	r.set("p50_ms", p50)
	r.set("p90_ms", p90)
	r.set("peak_rss_mb", median(rss))
	r.info["setup_runs_s"] = setups
	r.info["closed_goodput_per_part"] = goodputs
	r.info["open_p90_ms_per_part"] = p90s
	r.info["hwm_mb_ldns_cdns_per_start"] = hwms
	// p99 is recorded but not a gated metric: see README.md.
	r.info["open_p99_ms"], _ = acrossParts(openParts, latencyQuartile, func(p *phaseResult) float64 { return p.latency(99) })
	r.info["open_samples_per_part"] = len(open.latUs) / len(openParts)
	r.info["closed_failures"], r.info["open_failures"] = closed.fails, open.fails
	r.info["stray_answers"] = closed.stray + open.stray
	r.info["open_late_us_p50_p90"] = []float64{percentile(open.lateUs, 50), percentile(open.lateUs, 90)}
	return nil
}

// traced runs the per-layer phases: the daemons again, scraped from
// outside, then the in-process chains untraced and traced.
func (w *socketWorkload) traced(r *run, env *chainEnv, seed int64, seconds time.Duration, traceDir string) error {
	hot := newHotSet(seed, env.topo)
	part := seconds / 5
	pair, _, err := w.setup(r, env, seed, hot, "w-")
	if err != nil {
		return err
	}
	err = w.scrapeLayers(r, pair, env, seed, hot, part)
	pair.stop()
	if err != nil {
		return err
	}
	if err := w.inProcessLayers(r, env, seed, hot, part, traceDir); err != nil {
		return err
	}
	return w.replayLPM(r, env, seed)
}

// scrapeLayers reads each daemon's counters around a closed and an
// open phase.
func (w *socketWorkload) scrapeLayers(r *run, pair *chainPair, env *chainEnv, seed int64, hot *hotSet, part time.Duration) error {
	k := parts(part)
	before, err := pair.sample()
	if err != nil {
		return err
	}
	closedParts, closed, err := w.drive(r, pair.addr, env, seed, hot, "dc", w.closedSpec(part), k)
	if err != nil {
		return err
	}
	mid, err := pair.sample()
	if err != nil {
		return err
	}
	_, open, err := w.drive(r, pair.addr, env, seed, hot, "do", w.openSpec(part), k)
	if err != nil {
		return err
	}
	after, err := pair.sample()
	if err != nil {
		return err
	}
	if err := w.overloadProbe(r, pair, env, seed, hot, part/2, after); err != nil {
		return err
	}

	l0, l1, c0, c1 := before.ldns, after.ldns, before.cdns, after.cdns
	queries := float64(closed.attempted + open.attempted)
	packets := delta(l0, l1, "meccdn_dns_udp_packets_total")
	r.set("ingress.pkts_per_batch", ratio(packets, delta(l0, l1, "meccdn_dns_udp_batches_total")))
	hits := delta(l0, l1, "meccdn_dns_cache_hits_total")
	r.set("cache.hit_ratio", ratio(hits, hits+delta(l0, l1, "meccdn_dns_cache_misses_total")))
	r.set("cache.evictions_per_q", ratio(delta(l0, l1, "meccdn_dns_cache_evictions_total"), queries))
	r.set("router.subnet_route_ratio", ratio(delta(c0, c1, `meccdn_route_lookups_total{result="hit"}`), deltaFamily(c0, c1, "meccdn_route_lookups_total")))
	r.set("ldns.cpu_us_per_q", cpuPerQuery(l1.cpu-mid.ldns.cpu, open.ok))
	r.set("cdns.cpu_us_per_q", cpuPerQuery(c1.cpu-mid.cdns.cpu, open.ok))
	r.set("ldns.serve_mean_us", 1e6*ratio(delta(l0, l1, "meccdn_dns_serve_duration_seconds_sum"), delta(l0, l1, "meccdn_dns_serve_duration_seconds_count")))
	r.set("cdns.serve_mean_us", 1e6*ratio(delta(c0, c1, "meccdn_dns_serve_duration_seconds_sum"), delta(c0, c1, "meccdn_dns_serve_duration_seconds_count")))
	r.set("loadgen.late_p99_ms", percentile(open.lateUs, 99)/1000)
	r.info["daemon_goodput_qps"], _ = acrossParts(closedParts, 50, (*phaseResult).goodput)
	return nil
}

// probeWindow is the overload probe's queries in flight: four times
// what dnsd's default UDP ingress queue (4 batches per worker, one
// worker per CPU) holds on a 2-CPU host.
const probeWindow = 32

// overloadProbe drives a closed loop at probeWindow, past the window
// the measured phases keep to, and reports the datagrams the daemons
// shed from their batch-bounded ingress queues and the kernel dropped
// from full socket buffers. The shed queries are what the probe
// measures, so they are reported there and in the result file, not as
// failed operations; wrong answers still count as failures. A query
// is given up after 20 ms, so lost ones do not hold the window.
func (w *socketWorkload) overloadProbe(r *run, pair *chainPair, env *chainEnv, seed int64, hot *hotSet, d time.Duration, before *chainSample) error {
	g, err := newGenerator(pair.addr, genSockets, env.topo, w.streams(seed, env.topo, hot, "probe-"))
	if err != nil {
		return err
	}
	res, err := g.run(phaseSpec{window: probeWindow, dur: d, timeout: 20 * time.Millisecond})
	g.close()
	if err != nil {
		return err
	}
	after, err := pair.sample()
	if err != nil {
		return err
	}
	lost := res.fails[reasonTimeout]
	res.attempted -= lost
	delete(res.fails, reasonTimeout)
	r.add(res)
	l0, l1, c0, c1 := before.ldns, after.ldns, before.cdns, after.cdns
	shed := delta(l0, l1, "meccdn_dns_udp_dropped_total") + delta(c0, c1, "meccdn_dns_udp_dropped_total")
	r.set("ingress.shed_per_10k", 1e4*ratio(shed, delta(l0, l1, "meccdn_dns_udp_packets_total")))
	r.set("kernel.rcvbuf_errors", float64(after.rcvbuf-before.rcvbuf))
	r.info["overload_probe"] = map[string]any{"window": probeWindow, "queries": res.attempted + lost, "lost": lost, "shed": shed}
	return nil
}

// inProcessLayers measures the in-process chains: untraced goodput,
// traced goodput (their ratio is the tracing overhead), then a traced
// open-loop phase whose spans give the per-layer times.
func (w *socketWorkload) inProcessLayers(r *run, env *chainEnv, seed int64, hot *hotSet, part time.Duration, traceDir string) error {
	closed := w.closedSpec(part)
	var goodput [2]float64
	var stats *layerStats
	for traced := 0; traced < 2; traced++ {
		nsock := genSockets
		var t *tracer
		if traced == 1 {
			t = newTracer(nsock)
		}
		p, err := startInProcess(env, t)
		if err != nil {
			return err
		}
		err = func() error {
			defer p.stop()
			if err := waitReady(p.addr, env.topo, func() error { return nil }); err != nil {
				return err
			}
			if err := w.warm(r, p.addr, env, seed, hot, fmt.Sprintf("i%d-", traced)); err != nil {
				return err
			}
			g, err := newGenerator(p.addr, nsock, env.topo, w.streams(seed, env.topo, hot, fmt.Sprintf("p%d-", traced)))
			if err != nil {
				return err
			}
			defer g.close()
			if t != nil {
				t.ports = g.localPorts()
				g.hooks = t.hooks(nsock)
				t.reset()
			}
			cres, err := g.run(closed)
			if err != nil {
				return err
			}
			r.add(cres)
			goodput[traced] = cres.goodput()
			if t == nil {
				return nil
			}
			// Let server goroutines finish the spans of timed-out
			// queries before the tracer is reused.
			time.Sleep(50 * time.Millisecond)
			t.reset()
			ores, err := g.run(w.openSpec(part))
			if err != nil {
				return err
			}
			r.add(ores)
			time.Sleep(50 * time.Millisecond)
			stats, err = t.analyze(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, seed)))
			return err
		}()
		if err != nil {
			return err
		}
	}
	r.set("trace.overhead_pct", 100*(1-ratio(goodput[1], goodput[0])))
	r.set("metrics.self_us", meanUs(stats.self[layerMetrics], stats.count[layerMetrics]))
	r.set("cache.hit_self_us", meanUs(stats.hitSelf[layerCache], stats.hits[layerCache]))
	r.set("cache.miss_self_us", meanUs(stats.missSelf[layerCache], stats.misses[layerCache]))
	r.set("stub.self_us", meanUs(stats.self[layerStub], stats.count[layerStub]))
	r.set("router.self_us", meanUs(stats.self[layerRouter], stats.count[layerRouter]))
	r.set("dnsclient.exchange_us", meanUs(stats.dur[layerExchange], stats.count[layerExchange]))
	r.set("dnsclient.exchanges_per_q", ratio(float64(stats.count[layerExchange]), float64(stats.queries)))
	r.set("dnsclient.timeouts", float64(stats.errs[layerExchange]))
	r.set("ingress.outside_chain_us", stats.outsideUs)
	r.set("trace.unattributed_us", stats.unattribUs)
	r.info["inprocess_goodput_qps"] = goodput
	r.info["traced_queries"] = stats.queries
	r.info["trace_spans"] = stats.spans
	r.info["trace_spans_dropped"] = stats.dropped
	return nil
}

// replayLPM replays the workload's ECS subnets through the route
// table's public Lookup, checking each result against the checker's
// own longest-prefix match. The LPM runs only on a miss, so ldns-hit
// reports it idle.
func (w *socketWorkload) replayLPM(r *run, env *chainEnv, seed int64) error {
	if w.hit {
		r.set("lpm.lookup_ns", 0)
		return nil
	}
	f, err := os.Open(env.routesPath)
	if err != nil {
		return err
	}
	table, err := meccdn.ParseRoutes(f)
	f.Close()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]netip.Addr, 1<<16)
	for i := range addrs {
		s := env.topo.subnet(rng)
		addrs[i] = netip.AddrFrom4([4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), 0})
		pop, bits, _ := table.Lookup(addrs[i])
		wpop, wbits, _ := env.topo.lookup(s)
		reason := ""
		if int(pop) != wpop || bits != wbits {
			reason = reasonWrongAnswer
		}
		r.attempt(reason)
	}
	var calls int
	t0 := time.Now()
	for time.Since(t0) < 500*time.Millisecond {
		for _, a := range addrs {
			table.Lookup(a)
		}
		calls += len(addrs)
	}
	r.set("lpm.lookup_ns", float64(time.Since(t0).Nanoseconds())/float64(calls))
	return nil
}
