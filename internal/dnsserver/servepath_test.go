package dnsserver

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/telemetry"
	"github.com/meccdn/meccdn/internal/vclock"
)

// wireSink is a ResponseWriter that records how the cache delivered
// its answer: WriteWire captures patched wire bytes, WriteMsg the
// decoded message. It implements WireWriter and responseTracker like
// the server's socket writers.
type wireSink struct {
	size    int
	wire    []byte
	msg     *dnswire.Message
	written bool
}

func (s *wireSink) WireSize() int {
	if s.size > 0 {
		return s.size
	}
	return dnswire.MaxUDPSize
}
func (s *wireSink) Written() bool { return s.written }
func (s *wireSink) WriteWire(w []byte) error {
	s.wire = append([]byte(nil), w...)
	s.written = true
	return nil
}
func (s *wireSink) WriteMsg(m *dnswire.Message) error {
	s.msg = m
	s.written = true
	return nil
}

// referenceHit is the decoded oracle every cache serve is checked
// against. It decodes the answer the backend stored, restamps ID and
// RD/CD for q, rewrites each TTL outside OPT with ttl (ageBy on a live
// hit, clampTo on a stale serve), echoes q's ECS family, source prefix
// and address under the stored scope, and packs again.
func referenceHit(t *testing.T, stored *dnswire.Message, q *Request, ttl func(uint32) uint32) []byte {
	t.Helper()
	wire, err := stored.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var m dnswire.Message
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	m.ID, m.RecursionDesired, m.CheckingDisabled = q.Msg.ID, q.Msg.RecursionDesired, q.Msg.CheckingDisabled
	for _, section := range [][]dnswire.RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range section {
			if rr.Header().Type != dnswire.TypeOPT {
				rr.Header().TTL = ttl(rr.Header().TTL)
			}
		}
	}
	if qecs, ok := q.Msg.ECS(); ok {
		if recs, ok := m.ECS(); ok {
			recs.Family, recs.SourcePrefix, recs.Address = qecs.Family, qecs.SourcePrefix, qecs.Address
		}
	}
	out, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func ageBy(age uint32) func(uint32) uint32 {
	return func(ttl uint32) uint32 { return ttl - min(ttl, age) }
}

func clampTo(limit uint32) func(uint32) uint32 {
	return func(ttl uint32) uint32 { return min(ttl, limit) }
}

// serveVia resolves q through h into a fresh writer of the given kind
// and returns the response bytes: "wire" is a WireWriter that must
// receive the patched image itself, "oversize" a WireWriter whose
// payload limit the answer exceeds (so it must arrive decoded through
// WriteMsg), and "decode" Resolve's plain recorder.
func serveVia(t *testing.T, h Handler, kind string, q *Request) []byte {
	t.Helper()
	var msg *dnswire.Message
	switch kind {
	case "wire", "oversize":
		sink := &wireSink{}
		if kind == "oversize" {
			sink.size = 12
		}
		ResolveTo(context.Background(), h, sink, q)
		if kind == "wire" {
			if sink.wire == nil {
				t.Fatalf("%s: a hit through a WireWriter did not arrive as wire bytes", kind)
			}
			return sink.wire
		}
		msg = sink.msg
	case "decode":
		msg = Resolve(context.Background(), h, q)
	}
	if msg == nil {
		t.Fatalf("%s: no decoded response", kind)
	}
	wire, err := msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

var writerKinds = []string{"wire", "oversize", "decode"}

// TestWireHitMatchesDecodePath pins the cache-hit invariant end to end
// at the plugin layer: whatever the query shape (plain or EDNS0) and
// whatever the writer, a hit served from the stored wire image is
// byte-identical to the decode → age → repack reference, including
// transaction ID, RD/CD mirroring, and TTL aging.
func TestWireHitMatchesDecodePath(t *testing.T) {
	zone := NewZone("wire.test.")
	if err := zone.AddA("www.wire.test.", 300, netip.MustParseAddr("192.0.2.31")); err != nil {
		t.Fatal(err)
	}
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	chain := Chain(cache, NewZonePlugin(zone))

	query := func(id uint16, rd, edns bool) *Request {
		q := new(dnswire.Message)
		q.SetQuestion("www.wire.test.", dnswire.TypeA)
		q.ID = id
		q.RecursionDesired = rd
		if edns {
			q.SetEDNS(1232)
		}
		return &Request{Msg: q, Client: netip.MustParseAddrPort("192.0.2.99:4242"), Transport: "udp"}
	}

	// Populate the cache, then age it.
	stored := Resolve(context.Background(), chain, query(1, true, false))
	if stored.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("warm query rcode = %v", stored.Rcode)
	}
	clock.Advance(10 * time.Second)

	for _, edns := range []bool{false, true} {
		for _, rd := range []bool{true, false} {
			for _, kind := range writerKinds {
				q := query(0xABCD, rd, edns)
				got := serveVia(t, chain, kind, q)
				if want := referenceHit(t, stored, q, ageBy(10)); !bytes.Equal(got, want) {
					t.Fatalf("edns=%v rd=%v %s: hit differs from the reference:\n% x\n% x", edns, rd, kind, got, want)
				}
			}
		}
	}

	// Spot-check the reference itself: the caller's ID, the aged TTL,
	// and RD mirrored from the request.
	var got dnswire.Message
	if err := got.Unpack(serveVia(t, chain, "wire", query(0xABCD, true, true))); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xABCD {
		t.Errorf("wire hit ID = %#x, want 0xABCD", got.ID)
	}
	if len(got.Answers) != 1 || got.Answers[0].Header().TTL != 290 {
		t.Errorf("wire hit answers = %v, want one A with TTL 290", got.Answers)
	}
	if !got.RecursionDesired {
		t.Error("RD bit not mirrored from the request")
	}
	if st := cache.Stats(); st.Hits < 13 || st.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want >= 13/1", st.Hits, st.Misses)
	}
}

// nullWire is a WireWriter that discards what it is given without
// copying, so allocation counts measure only the cache.
type nullWire struct{ written bool }

func (w *nullWire) WireSize() int                   { return dnswire.MaxUDPSize }
func (w *nullWire) Written() bool                   { return w.written }
func (w *nullWire) WriteWire([]byte) error          { w.written = true; return nil }
func (w *nullWire) WriteMsg(*dnswire.Message) error { w.written = true; return nil }

// TestCacheHitsAllocationFree: plain, EDNS0 and ECS hits through a
// wire writer allocate nothing, the ECS echo splice included.
func TestCacheHitsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	h := Chain(NewCache(&vclock.Fixed{}), &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 16)})
	edns := queryFor("alloc.test.")
	edns.Msg.SetEDNS(1232)
	for _, tc := range []struct {
		name string
		q    *Request
	}{
		{"plain", queryFor("alloc.test.")},
		{"edns0", edns},
		{"ecs", ecsQueryFor("alloc.test.", "10.1.2.0/24")},
		{"ecs-splice", ecsQueryFor("alloc.test.", "10.1.0.0/16")},
	} {
		w := &nullWire{}
		ResolveTo(context.Background(), h, w, tc.q) // warm
		allocs := testing.AllocsPerRun(200, func() {
			w.written = false
			if rc := ResolveTo(context.Background(), h, w, tc.q); rc != dnswire.RcodeSuccess {
				t.Fatalf("%s: rcode %v", tc.name, rc)
			}
		})
		if allocs != 0 {
			t.Errorf("%s hit allocates %.1f per query, want 0", tc.name, allocs)
		}
	}
}

// bufferGuard holds each request across a delay and verifies the
// message it was given has not been torn by packet-buffer reuse — the
// regression test for handing pooled read buffers to the handler.
type bufferGuard struct {
	torn atomic.Int64
}

func (g *bufferGuard) Name() string { return "bufferguard" }
func (g *bufferGuard) ServeDNS(ctx context.Context, w ResponseWriter, r *Request, next Handler) (dnswire.Rcode, error) {
	name := r.Msg.Question().Name
	id := r.Msg.ID
	time.Sleep(200 * time.Microsecond) // let other packets churn the buffer pool
	if r.Msg.Question().Name != name || r.Msg.ID != id {
		g.torn.Add(1)
	}
	return next.ServeDNS(ctx, w, r)
}

// TestHandlerNeverSeesReusedBuffer floods the server with concurrent
// distinct queries so pooled read buffers recycle constantly, and
// asserts every response still matches its own question — end to end
// (the client validates ID and question) and inside the handler (the
// bufferGuard plugin re-checks the request after a delay).
func TestHandlerNeverSeesReusedBuffer(t *testing.T) {
	zone := NewZone("pool.test.")
	const names = 32
	for i := 0; i < names; i++ {
		if err := zone.AddA(fmt.Sprintf("h%d.pool.test.", i), 60, netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	guard := &bufferGuard{}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(guard, NewZonePlugin(zone)),
		Workers:    4,
		QueueDepth: 256, // roomy: this test is about reuse, not shedding
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	const clients, iters = 8, 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := realClient()
			cl.Retries = 2
			for i := 0; i < iters; i++ {
				n := (c*iters + i) % names
				resp, err := cl.Query(context.Background(), srv.LocalAddr(), fmt.Sprintf("h%d.pool.test.", n), dnswire.TypeA)
				if err != nil {
					errs <- err
					return
				}
				a, ok := resp.Answers[0].(*dnswire.A)
				if !ok || a.Addr != netip.AddrFrom4([4]byte{192, 0, 2, byte(n)}) {
					errs <- fmt.Errorf("h%d got answer %v", n, resp.Answers[0])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := guard.torn.Load(); n != 0 {
		t.Errorf("%d requests observed a torn/reused buffer", n)
	}
	if n := srv.DroppedPackets(); n != 0 {
		t.Errorf("%d packets shed with a roomy queue", n)
	}
}

// TestGracefulDrainWaitsForQueued pins the worker-pool drain contract:
// packets already accepted into the ingress queue when Shutdown begins
// are still served, because track() runs before enqueue.
func TestGracefulDrainWaitsForQueued(t *testing.T) {
	z := NewZone("drain.test.")
	if err := z.AddA("www.drain.test.", 60, netip.MustParseAddr("192.0.2.77")); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(&slowPlugin{delay: 120 * time.Millisecond}, NewZonePlugin(z)),
		Workers:    1, // serialize: later queries sit in the queue
		QueueDepth: 8,
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	const queries = 3
	results := make(chan error, queries)
	for i := 0; i < queries; i++ {
		go func() {
			c := realClient()
			c.Timeout = 3 * time.Second
			resp, err := c.Query(context.Background(), srv.LocalAddr(), "www.drain.test.", dnswire.TypeA)
			if err == nil && len(resp.Answers) != 1 {
				err = fmt.Errorf("answers = %v", resp.Answers)
			}
			results <- err
		}()
		time.Sleep(10 * time.Millisecond)
	}

	// First query is in the worker, the rest are queued. Drain.
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for i := 0; i < queries; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued query lost during drain: %v", err)
		}
	}
}

// TestUDPQueueOverflowSheds pins the overflow contract: with one busy
// worker and a one-slot queue, a burst must be shed (counted on the
// server's drop counter and the LoadShed family), never queued without
// bound.
func TestUDPQueueOverflowSheds(t *testing.T) {
	z := NewZone("flood.test.")
	if err := z.AddA("www.flood.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	shed := &LoadShed{}
	srv := &Server{
		Addr:       "127.0.0.1:0",
		Handler:    Chain(&slowPlugin{delay: 100 * time.Millisecond}, NewZonePlugin(z)),
		Workers:    1,
		QueueDepth: 1,
		Batch:      1, // unbatched: recvmmsg would coalesce the burst into one queue slot
		Shed:       shed,
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	q := new(dnswire.Message)
	q.SetQuestion("www.flood.test.", dnswire.TypeA)
	q.ID = 99
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 30; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}

	// The read loop bumps the server's drop counter and then the shed
	// counter, so mid-burst a reader can see one drop ahead of the
	// other; they must agree once the loop is between drops.
	waitFor(t, 2*time.Second, func() bool { return srv.DroppedPackets() > 0 })
	var s, dropped uint64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if dropped = srv.DroppedPackets(); dropped > 0 {
			if s, _ = shed.Shed(); s == dropped {
				break
			}
		}
	}
	if s != dropped {
		t.Errorf("loadshed shed counter = %d, server dropped = %d; want equal", s, dropped)
	}

	// The serve-loop families expose the drops and the pool gauges.
	reg := telemetry.NewRegistry()
	reg.MustRegister(srv.Collectors()...)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"meccdn_dns_udp_dropped_total", "meccdn_dns_udp_workers_busy", "meccdn_dns_udp_queue_depth",
	} {
		if !strings.Contains(b.String(), family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}
