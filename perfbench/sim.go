package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	meccdn "github.com/meccdn/meccdn"
	"github.com/meccdn/meccdn/internal/experiments"
)

// sim-fleet runs the virtual-time testbed: X8 (bounded vs plain ring)
// with the UE population reduced from 1.2M and X9 (mesh vs vertical
// fill) with a raised flash-crowd volume, so one round of both takes
// a few seconds.
const (
	simX8UEs      = 100_000
	simX9Requests = 500
	// simReferenceSeed is the seed whose rendered tables must equal
	// the reference recorded from the seed commit.
	simReferenceSeed = 42
)

// simReference is `experiments -x loadbalance -ues 100000 -seed 42`
// followed by `experiments -x mesh -requests 500 -seed 42`, recorded
// from the seed commit. These outputs must not change.
//
//go:embed testdata/sim_fleet_seed42.txt
var simReference string

// simRound is one X8 + X9 round.
type simRound struct {
	x8       *experiments.LoadBalanceResult
	x9       *experiments.MeshResult
	x8s, x9s float64 // wall seconds
	requests int     // simulated UE requests across both
}

func runSimRound(seed int64) (*simRound, error) {
	r := &simRound{}
	t0 := time.Now()
	x8, err := experiments.LoadBalance(experiments.LoadBalanceConfig{Seed: seed, UEs: simX8UEs})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	x9, err := experiments.Mesh(experiments.MeshConfig{Seed: seed, RequestsPerTick: simX9Requests})
	if err != nil {
		return nil, err
	}
	r.x8, r.x9 = x8, x9
	r.x8s, r.x9s = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	for _, sc := range x8.Scenarios {
		for _, a := range sc.Arms {
			r.requests += a.Requests
		}
	}
	for _, a := range x9.Arms {
		r.requests += a.Requests
	}
	return r, nil
}

// check returns "" when the round's outputs are right: equal to the
// reference at the reference seed, and otherwise holding the
// invariants X8 and X9 exist to show.
func (r *simRound) check(seed int64) string {
	if seed == simReferenceSeed {
		if r.x8.Render()+"\n"+r.x9.Render()+"\n" != simReference {
			return "reference_mismatch"
		}
		return ""
	}
	for _, sc := range r.x8.Scenarios {
		var plain, bounded float64
		for _, a := range sc.Arms {
			switch a.Ring {
			case "plain":
				plain = a.MeanSpread
			case "bounded":
				bounded = a.MeanSpread
			}
		}
		if bounded > plain {
			return "bounded_spread_above_plain"
		}
	}
	mesh, vertical := r.x9Arm("mesh"), r.x9Arm("vertical")
	if mesh == nil || vertical == nil || mesh.SiblingShare <= vertical.SiblingShare {
		return "mesh_share_not_above_vertical"
	}
	return ""
}

func (r *simRound) x9Arm(mode string) *experiments.MeshArm {
	for i := range r.x9.Arms {
		if r.x9.Arms[i].Mode == mode {
			return &r.x9.Arms[i]
		}
	}
	return nil
}

// fleet is a three-site meshed testbed built through the facade, the
// shape X9 runs on.
type fleet struct {
	sites []*meccdn.Site
	segs  []meccdn.Content
	ue    *meccdn.UEClient
}

const fleetDomain = "mycdn.bench.test."

// fleetSamples is how many UE requests the latency percentiles of
// sim-fleet are taken over.
const fleetSamples = 4000

// simSetup builds the testbed, waits for the first correct UE
// resolve-and-fetch and warms it with one X9 tick of flash-crowd
// requests; it returns the fleet and the seconds that took.
func simSetup(seed int64) (*fleet, float64, error) {
	t0 := time.Now()
	tb := meccdn.NewTestbed(meccdn.TestbedConfig{Seed: seed})
	originNode := tb.AddWAN("origin", 1)
	origin := meccdn.NewOrigin()
	cat := meccdn.NewCatalog(fleetDomain)
	f := &fleet{}
	for i := 0; i < 48; i++ {
		c := meccdn.Content{Name: fmt.Sprintf("seg-%04d.live.%s", i, fleetDomain), Size: 4096}
		cat.Publish(c)
		f.segs = append(f.segs, c)
	}
	origin.AddCatalog(cat)
	meccdn.NewOriginServer(originNode, origin, meccdn.Constant(2*time.Millisecond))
	for i := 0; i < 3; i++ {
		s, err := meccdn.DeploySite(tb, meccdn.SiteConfig{
			Domain:     fleetDomain,
			NamePrefix: fmt.Sprintf("s%d-", i),
			OriginAddr: originNode.Addr,
			Mesh:       &meccdn.MeshOptions{},
		})
		if err != nil {
			return nil, 0, err
		}
		f.sites = append(f.sites, s)
	}
	if err := meccdn.ConnectMesh(f.sites...); err != nil {
		return nil, 0, err
	}
	for i, seg := range f.segs {
		f.sites[1+i%2].Warm(seg)
	}
	for _, s := range f.sites {
		s.AnnounceOnce()
	}
	f.ue = &meccdn.UEClient{EP: tb.Net.Node(meccdn.NodeUE).Endpoint(), MEC: f.sites[0].LDNS}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < simX9Requests; i++ {
		if _, err := f.fetch(f.segs[rng.Intn(len(f.segs))]); err != nil {
			return nil, 0, err
		}
	}
	return f, time.Since(t0).Seconds(), nil
}

// fetch resolves and fetches one object, retransmitting like X9's UE
// over the lossy air interface, and returns the virtual time the
// successful attempt took.
func (f *fleet) fetch(c meccdn.Content) (time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var fr *meccdn.FetchResult
		if fr, err = f.ue.ResolveAndFetch(fleetDomain, c.Name); err == nil {
			if !fr.Content.Served() {
				return 0, fmt.Errorf("%s not served (%s)", c.Name, fr.Content.Status)
			}
			return fr.Total, nil
		}
	}
	return 0, err
}

// fleetLatencies sends n flash-crowd requests from the hot site's UE
// and returns their virtual resolve-and-fetch latencies in ms.
func (f *fleet) fleetLatencies(seed int64, n int) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	lats := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := f.fetch(f.segs[rng.Intn(len(f.segs))])
		if err != nil {
			return nil, err
		}
		lats = append(lats, float64(d)/1e6)
	}
	return lats, nil
}

func selfCPU() (time.Duration, error) { return procCPU(os.Getpid()) }

// setupReps is how many times a sim-fleet run builds its testbed to
// measure set-up time; setup_s is the median.
const setupReps = 5

// measureSim runs the end-to-end sim-fleet measurement.
func measureSim(r *run, seed int64, seconds time.Duration) error {
	var setups []float64
	var f *fleet
	for i := 0; i < setupReps; i++ {
		var s float64
		var err error
		if f, s, err = simSetup(seed); err != nil {
			return err
		}
		setups = append(setups, s)
	}
	r.set("setup_s", median(setups))
	r.info["setup_runs_s"] = setups
	lats, err := f.fleetLatencies(seed, fleetSamples)
	if err != nil {
		return err
	}
	r.attemptN(len(lats), "")
	r.set("p50_ms", percentile(lats, 50))
	r.set("p90_ms", percentile(lats, 90))

	cpu0, err := selfCPU()
	if err != nil {
		return err
	}
	var rates []float64
	var requests int
	for t0 := time.Now(); len(rates) < 2 || time.Since(t0) < seconds; {
		round, err := runSimRound(seed)
		if err != nil {
			return err
		}
		r.attemptN(round.requests, round.check(seed))
		rates = append(rates, float64(round.requests)/(round.x8s+round.x9s))
		requests += round.requests
	}
	cpu1, err := selfCPU()
	if err != nil {
		return err
	}
	r.set("goodput_qps", percentile(slices.Clone(rates), goodputQuartile))
	r.set("server_cpu_us_per_q", ratio(float64((cpu1-cpu0).Microseconds()), float64(requests)))
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", float64(hwm)/1024)
	r.info["rounds"] = len(rates)
	r.info["round_req_per_s"] = rates
	r.info["latency_samples"] = len(lats)
	return nil
}

// tracedSim gives the per-layer numbers of the testbed: the rounds'
// own outputs, then public-function replays of the ring and the mesh
// view.
func tracedSim(r *run, seed int64, seconds time.Duration) error {
	f, _, err := simSetup(seed)
	if err != nil {
		return err
	}
	var x8s, x9s []float64
	var last *simRound
	for t0 := time.Now(); len(x8s) < 2 || time.Since(t0) < seconds/2; {
		round, err := runSimRound(seed)
		if err != nil {
			return err
		}
		r.attemptN(round.requests, round.check(seed))
		x8s, x9s = append(x8s, round.x8s), append(x9s, round.x9s)
		last = round
	}
	r.set("sim.x8_s", median(x8s))
	r.set("sim.x9_s", median(x9s))
	var spills uint64
	var boundedReqs int
	var spread float64
	var arms int
	for _, sc := range last.x8.Scenarios {
		for _, a := range sc.Arms {
			if a.Ring == "bounded" {
				spills += a.Spills
				boundedReqs += a.Requests
				spread += a.MeanSpread
				arms++
			}
		}
	}
	r.set("ring.spills_per_req", ratio(float64(spills), float64(boundedReqs)))
	r.set("ring.load_spread", ratio(spread, float64(arms)))
	mesh := last.x9Arm("mesh")
	r.set("mesh.sibling_share", mesh.SiblingShare)
	r.set("cache.hit_ratio", ratio(float64(mesh.LocalHits), float64(mesh.Requests)))
	r.set("ring.owners_ns", replayRing(seed, seconds/4))
	r.set("mesh.steer_ns", f.replaySteer(seed, seconds/4))
	return nil
}

// replayRing times HashRing.OwnersAppend on X8's shape: a bounded
// ring of 8 caches, Zipf(1.1) keys over 100k objects, one unit of
// load recorded per request and the loads halved every 5000 requests,
// as X8 does per tick. It returns nanoseconds per lookup.
func replayRing(seed int64, d time.Duration) float64 {
	router := meccdn.NewRouter("cdn.x8.test.")
	router.Ring.Bounded = true
	router.Ring.LoadFactor = 1.25
	for i := 0; i < 8; i++ {
		router.Ring.Add(fmt.Sprintf("east-cache-%02d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, 99_999)
	keys := make([]string, 1<<15)
	for i := range keys {
		keys[i] = fmt.Sprintf("video-%d.cdn.x8.test.", zipf.Uint64())
	}
	const chunk = 256
	var first [chunk]string
	var dst []string
	var busy time.Duration
	calls := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for lo := 0; lo < len(keys); lo += chunk {
			c0 := time.Now()
			for j, k := range keys[lo : lo+chunk] {
				dst = router.Ring.OwnersAppend(dst[:0], k, 2)
				first[j] = dst[0]
			}
			busy += time.Since(c0)
			for _, m := range first {
				router.Ring.RecordLoad(m)
			}
			calls += chunk
			if calls%5120 == 0 {
				router.Ring.DecayLoads(0.5)
			}
		}
	}
	return float64(busy.Nanoseconds()) / float64(calls)
}

// replaySteer times mesh View.Steer at the hot site of the fleet over
// the announced segments and as many never-announced names, halving
// the steering loads every 64 calls like X9's ticks. It returns
// nanoseconds per call.
func (f *fleet) replaySteer(seed int64, d time.Duration) float64 {
	agent := f.sites[0].Mesh
	view := agent.View()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 1<<12)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = f.segs[rng.Intn(len(f.segs))].Name
		} else {
			keys[i] = fmt.Sprintf("cold-%d.%s", rng.Intn(1e9), fleetDomain)
		}
	}
	const chunk = 64
	var busy time.Duration
	calls := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for lo := 0; lo < len(keys); lo += chunk {
			c0 := time.Now()
			for _, k := range keys[lo : lo+chunk] {
				view.Steer(k)
			}
			busy += time.Since(c0)
			calls += chunk
			agent.DecayLoads(0.5)
		}
	}
	return float64(busy.Nanoseconds()) / float64(calls)
}
