package main

import (
	"bufio"
	"context"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	meccdn "github.com/meccdn/meccdn"
)

// The traced run assembles the same two plugin chains dnsd's build()
// assembles, in this process, through the root meccdn facade, and
// times every layer from outside: each DNSPlugin, the DNSHandler given
// to each DNSServer, and the client Transport under NetTransport are
// wrapped. Nothing inside the program is instrumented.

// Layers a span can belong to.
const (
	layerLDNSHandler = iota // everything the L-DNS handler ran
	layerCDNSHandler        // everything the C-DNS handler ran
	layerMetrics
	layerCache
	layerStub
	layerZone
	layerRouter
	layerExchange // one dnsclient Transport exchange, L-DNS → C-DNS
	numLayers
)

var layerNames = [numLayers]string{"ldns.handler", "cdns.handler", "metrics", "cache", "stub", "zone", "router", "dnsclient.exchange"}

// span is one timed call. parent indexes the enclosing span in the
// same tracer, -1 for a root; qid is the generator's query number.
type span struct {
	qid    uint32
	parent int32
	layer  uint8
	err    bool
	start  int64 // ns since the tracer's epoch
	dur    int64 // ns; -1 while open
}

// noQID marks spans no generator query caused (background refreshes).
const noQID = ^uint32(0)

// spanCap bounds the spans one phase keeps in memory; spans past it
// are counted and dropped.
const spanCap = 1 << 20

type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// qids maps (generator socket, message ID) to the query number,
	// so the L-DNS handler can find which query it is serving.
	qids  [][1 << 16]atomic.Uint32
	ports []uint16
	// links maps a question name to the exchange span that forwarded
	// it, so the C-DNS handler span gets its parent.
	links sync.Map
	// rtts are the generator's correct round trips, per socket.
	rtts [][]qidRTT
}

type qidRTT struct {
	qid uint32
	rtt time.Duration
}

func newTracer(nsock int) *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, spanCap),
		qids:  make([][1 << 16]atomic.Uint32, nsock),
		rtts:  make([][]qidRTT, nsock),
	}
}

// hooks returns the generator hooks that feed the tracer.
func (t *tracer) hooks(nsock int) *genHooks {
	return &genHooks{
		sent: func(sock int, id uint16, qid uint32) { t.qids[sock][id].Store(qid) },
		answered: func(qid uint32, rtt time.Duration) {
			s := int(qid) % nsock
			t.rtts[s] = append(t.rtts[s], qidRTT{qid, rtt})
		},
	}
}

// reset forgets every span and round trip. Call it only while no
// query is in flight.
func (t *tracer) reset() {
	t.n.Store(0)
	t.dropped.Store(0)
	for i := range t.rtts {
		t.rtts[i] = t.rtts[i][:0]
	}
}

type spanRef struct {
	qid uint32
	idx int32
}

type spanKey struct{}

func (t *tracer) begin(ref spanRef, layer uint8) int32 {
	i := t.n.Add(1) - 1
	if i >= spanCap {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{qid: ref.qid, parent: ref.idx, layer: layer, start: int64(time.Since(t.epoch)), dur: -1}
	return int32(i)
}

func (t *tracer) end(idx int32, err bool) {
	if idx < 0 {
		return
	}
	s := &t.spans[idx]
	s.dur = int64(time.Since(t.epoch)) - s.start
	s.err = err
}

func refFrom(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return spanRef{qid: noQID, idx: -1}
}

// tracedPlugin times one plugin; the chain's next handler runs inside
// it, so the spans of later plugins are its children.
type tracedPlugin struct {
	inner meccdn.DNSPlugin
	layer uint8
	t     *tracer
}

func (p *tracedPlugin) Name() string { return p.inner.Name() }

func (p *tracedPlugin) ServeDNS(ctx context.Context, w meccdn.ResponseWriter, r *meccdn.DNSRequest, next meccdn.DNSHandler) (meccdn.Rcode, error) {
	ref := refFrom(ctx)
	idx := p.t.begin(ref, p.layer)
	rc, err := p.inner.ServeDNS(context.WithValue(ctx, spanKey{}, spanRef{ref.qid, idx}), w, r, next)
	p.t.end(idx, err != nil)
	return rc, err
}

// tracedHandler times a server's whole chain. On the L-DNS it finds
// the query number from the client port and message ID; on the C-DNS
// it finds the exchange span that forwarded the question.
type tracedHandler struct {
	inner meccdn.DNSHandler
	layer uint8
	t     *tracer
}

func (h *tracedHandler) ServeDNS(ctx context.Context, w meccdn.ResponseWriter, r *meccdn.DNSRequest) (meccdn.Rcode, error) {
	ref := spanRef{qid: noQID, idx: -1}
	if h.layer == layerLDNSHandler {
		for s, port := range h.t.ports {
			if r.Client.Port() == port {
				ref.qid = h.t.qids[s][r.Msg.ID].Load()
			}
		}
	} else if v, ok := h.t.links.Load(r.Name()); ok {
		ref = v.(spanRef)
	}
	idx := h.t.begin(ref, h.layer)
	rc, err := h.inner.ServeDNS(context.WithValue(ctx, spanKey{}, spanRef{ref.qid, idx}), w, r)
	h.t.end(idx, err != nil)
	return rc, err
}

// tracedTransport times each upstream exchange of the L-DNS stub.
type tracedTransport struct {
	inner *meccdn.NetTransport
	t     *tracer
}

func (x *tracedTransport) Exchange(ctx context.Context, server netip.AddrPort, q []byte, tcp bool) ([]byte, error) {
	ref := refFrom(ctx)
	idx := x.t.begin(ref, layerExchange)
	name := questionName(q)
	x.t.links.Store(name, spanRef{ref.qid, idx})
	resp, err := x.inner.Exchange(ctx, server, q, tcp)
	x.t.links.Delete(name)
	x.t.end(idx, err != nil)
	return resp, err
}

// inproc is the in-process L-DNS → C-DNS pair.
type inproc struct {
	ldns, cdns *meccdn.DNSServer
	addr       netip.AddrPort
}

// startInProcess assembles both chains like dnsd's build() with its
// default flag values, wrapping every layer when t is non-nil.
func startInProcess(env *chainEnv, t *tracer) (*inproc, error) {
	f, err := os.Open(env.routesPath)
	if err != nil {
		return nil, err
	}
	table, err := meccdn.ParseRoutes(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	f, err = os.Open(env.zonePath)
	if err != nil {
		return nil, err
	}
	zone, err := meccdn.ParseZone(mecZone, f)
	f.Close()
	if err != nil {
		return nil, err
	}
	cport, err := freePort()
	if err != nil {
		return nil, err
	}
	lport, err := freePort()
	if err != nil {
		return nil, err
	}

	router := meccdn.NewRouter(cdnDomain)
	router.Ring.LoadFactor = 1.25
	for p := 1; p <= numPoPs; p++ {
		router.MapPoP(meccdn.PoP(p), netip.AddrFrom4(popAddr(p)))
	}
	router.SetRoutes(table)
	cmetrics, ccache := newMetricsAndCache()
	cdns, err := assemble(loopback(cport), t, layerCDNSHandler, cmetrics, ccache,
		[]meccdn.DNSPlugin{cmetrics, ccache, router}, []uint8{layerMetrics, layerCache, layerRouter},
		router.Collectors())
	if err != nil {
		return nil, err
	}

	var transport interface {
		Exchange(context.Context, netip.AddrPort, []byte, bool) ([]byte, error)
	} = &meccdn.NetTransport{}
	if t != nil {
		transport = &tracedTransport{inner: &meccdn.NetTransport{}, t: t}
	}
	client := &meccdn.Client{Transport: transport, Timeout: 3 * time.Second, Retries: 1}
	stub := meccdn.NewStub(client)
	stub.FailureThreshold = 3
	stub.Cooldown = 5 * time.Second
	stub.Route(cdnDomain, loopback(cport))
	zp := meccdn.NewZonePlugin()
	zp.AddZone(zone)
	lmetrics, lcache := newMetricsAndCache()
	ldns, err := assemble(loopback(lport), t, layerLDNSHandler, lmetrics, lcache,
		[]meccdn.DNSPlugin{lmetrics, lcache, stub, zp}, []uint8{layerMetrics, layerCache, layerStub, layerZone}, nil)
	if err != nil {
		cdns.Close()
		return nil, err
	}
	return &inproc{ldns: ldns, cdns: cdns, addr: loopback(lport)}, nil
}

// newMetricsAndCache returns the Metrics plugin and the cache with
// dnsd's default -cache-entries, -cache-shards, -prefetch-frac and
// -max-stale.
func newMetricsAndCache() (*meccdn.DNSMetrics, *meccdn.DNSCache) {
	cache := meccdn.NewDNSCache(meccdn.RealClock())
	cache.MaxEntries = 4096
	cache.Shards = 16
	cache.PrefetchFrac = 0.1
	cache.MaxStale = time.Hour
	return meccdn.NewDNSMetrics(), cache
}

// assemble builds and starts one server the way dnsd's build() does:
// telemetry hub with the default query-log sampling, every collector
// registered, one worker and one SO_REUSEPORT socket per CPU (dnsd's
// GOMAXPROCS defaults; this process runs with spare Ps for the
// generator).
func assemble(listen netip.AddrPort, t *tracer, handlerLayer uint8, metrics *meccdn.DNSMetrics, cache *meccdn.DNSCache,
	plugins []meccdn.DNSPlugin, layers []uint8, extra []meccdn.TelemetryCollector) (*meccdn.DNSServer, error) {
	hub := meccdn.NewTelemetry(meccdn.RealClock())
	hub.SampleEvery = 16
	hub.Log = meccdn.NewQueryLog(1024)
	for _, cs := range [][]meccdn.TelemetryCollector{metrics.Collectors(), cache.Collectors(), extra} {
		if err := hub.Registry.Register(cs...); err != nil {
			return nil, err
		}
	}
	if t != nil {
		for i, p := range plugins {
			plugins[i] = &tracedPlugin{inner: p, layer: layers[i], t: t}
		}
	}
	handler := meccdn.Chain(plugins...)
	if t != nil {
		handler = &tracedHandler{inner: handler, layer: handlerLayer, t: t}
	}
	srv := &meccdn.DNSServer{
		Addr:      listen.String(),
		Handler:   handler,
		Telemetry: hub,
		Workers:   runtime.NumCPU(),
		Sockets:   runtime.NumCPU(),
	}
	cache.Background = srv
	if err := hub.Registry.Register(srv.Collectors()...); err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

func (p *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.ldns.Shutdown(ctx)
	_ = p.cdns.Shutdown(ctx)
}

// layerStats are the per-layer numbers one traced phase yields.
type layerStats struct {
	count, hits, misses          [numLayers]int
	dur, self, hitSelf, missSelf [numLayers]int64
	errs                         [numLayers]int
	queries                      int     // answered queries with an L-DNS handler span
	outsideUs, unattribUs        float64 // per-query means
	spans, dropped               int
}

// analyze computes self times (a span's duration minus its children's)
// and per-layer sums over the spans recorded since the last reset, and
// writes every span to path.
func (t *tracer) analyze(path string) (*layerStats, error) {
	n := int(min(t.n.Load(), spanCap))
	spans := t.spans[:n]
	st := &layerStats{spans: n, dropped: int(t.dropped.Load())}
	child := make([]int64, n)
	hasChild := make([]bool, n)
	for _, s := range spans {
		if s.dur >= 0 && s.parent >= 0 {
			child[s.parent] += s.dur
			hasChild[s.parent] = true
		}
	}
	handlerDur := map[uint32]int64{}
	glue := map[uint32]int64{}
	for i, s := range spans {
		if s.dur < 0 {
			continue
		}
		self := s.dur - child[i]
		l := s.layer
		st.count[l]++
		st.dur[l] += s.dur
		st.self[l] += self
		if s.err {
			st.errs[l]++
		}
		if hasChild[i] {
			st.misses[l]++
			st.missSelf[l] += self
		} else {
			st.hits[l]++
			st.hitSelf[l] += self
		}
		if s.qid == noQID {
			continue
		}
		switch l {
		case layerLDNSHandler:
			handlerDur[s.qid] = s.dur
			glue[s.qid] += self
		case layerCDNSHandler:
			glue[s.qid] += self
		}
	}
	var outside, unattrib float64
	for _, rs := range t.rtts {
		for _, r := range rs {
			hd, ok := handlerDur[r.qid]
			if !ok {
				continue
			}
			st.queries++
			outside += float64(int64(r.rtt) - hd)
			unattrib += float64(glue[r.qid])
		}
	}
	st.outsideUs = ratio(outside, float64(st.queries)) / 1e3
	st.unattribUs = ratio(unattrib, float64(st.queries)) / 1e3
	return st, writeSpans(path, spans)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tqid\tparent\tlayer\tstart_ns\tdur_ns\terr")
	for i, s := range spans {
		qid := int64(s.qid)
		if s.qid == noQID {
			qid = -1
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%t\n", i, qid, s.parent, layerNames[s.layer], s.start, s.dur, s.err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanUs is a layer's mean of sum over count, in microseconds.
func meanUs(sum int64, count int) float64 { return ratio(float64(sum), float64(count)) / 1e3 }
