package dnsserver

import (
	"context"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnsclient"
	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// startTestServer runs a real UDP/TCP server on a loopback ephemeral
// port for integration tests.
func startTestServer(t *testing.T, h Handler) netip.AddrPort {
	t.Helper()
	srv := &Server{Addr: "127.0.0.1:0", Handler: h}
	if err := srv.Start(); err != nil {
		t.Fatalf("starting server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.LocalAddr()
}

func realClient() *dnsclient.Client {
	c := &dnsclient.Client{Transport: &dnsclient.NetTransport{}, Timeout: 2 * time.Second}
	c.SetRand(rand.New(rand.NewSource(99)))
	return c
}

func TestServerOverRealUDP(t *testing.T) {
	z := NewZone("live.test.")
	if err := z.AddA("www.live.test.", 60, netip.MustParseAddr("192.0.2.44")); err != nil {
		t.Fatal(err)
	}
	addr := startTestServer(t, Chain(NewZonePlugin(z)))

	resp, err := realClient().Query(context.Background(), addr, "www.live.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].(*dnswire.A).Addr.String() != "192.0.2.44" {
		t.Errorf("answers = %v", resp.Answers)
	}
	if !resp.Authoritative {
		t.Error("AA not set")
	}
}

func TestServerTruncatesLargeUDPAndTCPRecovers(t *testing.T) {
	z := NewZone("big.test.")
	for i := 0; i < 120; i++ {
		if err := z.AddA("many.big.test.", 60,
			netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	addr := startTestServer(t, Chain(NewZonePlugin(z)))

	// Client without EDNS: UDP response must be ≤512 and truncated;
	// automatic TCP fallback must then return the full set.
	resp, err := realClient().Query(context.Background(), addr, "many.big.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 120 {
		t.Errorf("TCP fallback returned %d answers, want 120", len(resp.Answers))
	}

	// With fallback disabled we must see the truncated UDP response.
	c := realClient()
	c.DisableTCPFallback = true
	resp, err = c.Query(context.Background(), addr, "many.big.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("UDP response not truncated")
	}
	if len(resp.Answers) >= 120 {
		t.Error("UDP response was not actually reduced")
	}
}

// TestStartFailsWhenFixedTCPPortTaken: with an explicit port, a TCP
// bind failure is reported at once and the UDP sockets are released;
// only a kernel-picked (":0") port is worth picking again.
func TestStartFailsWhenFixedTCPPortTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	srv := &Server{Addr: addr, Handler: Chain()}
	if err := srv.Start(); err == nil || !strings.Contains(err.Error(), "listening tcp") {
		srv.Close()
		t.Fatalf("Start on a taken TCP port = %v, want a listening tcp error", err)
	}
	u, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatalf("UDP socket not released after the failed Start: %v", err)
	}
	u.Close()
}

// TestTCPNonReadingClientDoesNotStallShutdown: a client that pipelines
// queries and never reads the answers fills the socket buffers and
// blocks the server's write. The per-query deadline must cut that
// write, so Shutdown completes instead of waiting out its context.
func TestTCPNonReadingClientDoesNotStallShutdown(t *testing.T) {
	answers := make([]dnswire.RR, 3000) // ~48 KB per response
	for i := range answers {
		answers[i] = &dnswire.A{
			Hdr:  dnswire.RRHeader{Name: "big.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 60},
			Addr: netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)}),
		}
	}
	h := HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = answers
		return m.Rcode, w.WriteMsg(m)
	})
	srv := &Server{Addr: "127.0.0.1:0", Handler: h, ReadTimeout: 200 * time.Millisecond}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4096)
	q := new(dnswire.Message)
	q.SetQuestion("big.test.", dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// 600 answers of ~48 KB are far more than the loopback socket
	// buffers hold, so the server ends up blocked writing one.
	for i := 0; i < 600; i++ {
		if err := dnswire.WriteTCP(conn, wire); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v after %v: a client that stops reading stalled the drain", err, time.Since(start))
	}
}

func TestServerHonoursEDNSSize(t *testing.T) {
	z := NewZone("edns.test.")
	for i := 0; i < 60; i++ {
		if err := z.AddA("many.edns.test.", 60,
			netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	addr := startTestServer(t, Chain(NewZonePlugin(z)))
	c := realClient()
	c.UDPSize = 4096
	c.DisableTCPFallback = true
	resp, err := c.Query(context.Background(), addr, "many.edns.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Error("response truncated despite 4096-byte EDNS advertisement")
	}
	if len(resp.Answers) != 60 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
}

func TestServerDoubleStartAndClose(t *testing.T) {
	srv := &Server{Addr: "127.0.0.1:0", Handler: Chain()}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err == nil {
		t.Error("second Start succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServerNilHandler(t *testing.T) {
	srv := &Server{Addr: "127.0.0.1:0"}
	if err := srv.Start(); err == nil {
		srv.Close()
		t.Fatal("Start accepted nil handler")
	}
}

func TestAttachServesOverSimnet(t *testing.T) {
	z := NewZone("sim.test.")
	if err := z.AddA("host.sim.test.", 60, netip.MustParseAddr("10.0.0.5")); err != nil {
		t.Fatal(err)
	}
	n := simnet.New(50)
	n.AddNode("client")
	n.AddNode("server")
	n.AddLink("client", "server", simnet.Constant(4*time.Millisecond), 0)
	Attach(n.Node("server"), Chain(NewZonePlugin(z)), simnet.Constant(2*time.Millisecond))

	c := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("client").Endpoint()}}
	c.SetRand(rand.New(rand.NewSource(51)))
	start := n.Now()
	resp, err := c.Query(context.Background(),
		netip.AddrPortFrom(n.Node("server").Addr, 53), "host.sim.test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if rtt := n.Now() - start; rtt != 10*time.Millisecond {
		t.Errorf("virtual rtt = %v, want 10ms (4+2+4)", rtt)
	}
}

func TestAttachIgnoresGarbage(t *testing.T) {
	n := simnet.New(52)
	n.AddNode("a")
	n.AddNode("b")
	n.AddLink("a", "b", simnet.Constant(time.Millisecond), 0)
	Attach(n.Node("b"), Chain(), nil)
	_, _, err := n.Node("a").Endpoint().Exchange(n.Node("b").Addr, []byte("not dns"), 10*time.Millisecond)
	if err == nil {
		t.Error("garbage got a reply")
	}
}

// TestAttachQueuesConcurrentQueries models a server flood: two
// queries arriving back to back are serialized by the single-server
// queue, so the second one's response is delayed by the first's
// processing time.
func TestAttachQueuesConcurrentQueries(t *testing.T) {
	n := simnet.New(60)
	n.AddNode("a")
	n.AddNode("b")
	n.AddNode("server")
	n.AddLink("a", "server", simnet.Constant(time.Millisecond), 0)
	n.AddLink("b", "server", simnet.Constant(time.Millisecond), 0)
	z := NewZone("q.test.")
	if err := z.AddA("www.q.test.", 60, netip.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	Attach(n.Node("server"), Chain(NewZonePlugin(z)), simnet.Constant(10*time.Millisecond))

	q := new(dnswire.Message)
	q.SetQuestion("www.q.test.", dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Fire both datagrams at t=0, then drain the event queue and
	// observe the reply arrival times at each sender.
	var tA, tB time.Duration
	n.Node("a").Tap(func(ev simnet.HopEvent) {
		if ev.Kind == simnet.HopDeliver {
			tA = ev.Time
		}
	})
	n.Node("b").Tap(func(ev simnet.HopEvent) {
		if ev.Kind == simnet.HopDeliver {
			tB = ev.Time
		}
	})
	if err := n.Node("a").Endpoint().SendAsync(n.Node("server").Addr, wire); err != nil {
		t.Fatal(err)
	}
	if err := n.Node("b").Endpoint().SendAsync(n.Node("server").Addr, wire); err != nil {
		t.Fatal(err)
	}
	n.Clock.Run()
	// First reply: 1ms + 10ms + 1ms = 12ms. Second: queued behind the
	// first, so 1ms + (10+10)ms + 1ms = 22ms.
	first, second := tA, tB
	if first > second {
		first, second = second, first
	}
	if first != 12*time.Millisecond {
		t.Errorf("first reply at %v, want 12ms", first)
	}
	if second != 22*time.Millisecond {
		t.Errorf("second reply at %v, want 22ms (queued)", second)
	}
}

// TestRecursiveForwardingTopology wires ue → L-DNS (cache+forward) →
// A-DNS over simnet, the minimal version of the paper's Figure 1 flow,
// and verifies both the resolution result and the cache's latency
// effect on the second query.
func TestRecursiveForwardingTopology(t *testing.T) {
	n := simnet.New(53)
	n.AddNode("ue")
	n.AddNode("ldns")
	n.AddNode("adns")
	n.AddLink("ue", "ldns", simnet.Constant(10*time.Millisecond), 0)
	n.AddLink("ldns", "adns", simnet.Constant(40*time.Millisecond), 0)

	z := NewZone("cdn.example.")
	if err := z.AddA("img.cdn.example.", 300, netip.MustParseAddr("198.51.100.10")); err != nil {
		t.Fatal(err)
	}
	Attach(n.Node("adns"), Chain(NewZonePlugin(z)), simnet.Constant(time.Millisecond))

	upClient := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ldns").Endpoint()}}
	upClient.SetRand(rand.New(rand.NewSource(54)))
	cache := NewCache(n.Clock)
	fwd := &Forward{Upstreams: []netip.AddrPort{netip.AddrPortFrom(n.Node("adns").Addr, 53)}, Client: upClient}
	Attach(n.Node("ldns"), Chain(cache, fwd), simnet.Constant(time.Millisecond))

	ueClient := &dnsclient.Client{Transport: &dnsclient.SimTransport{Endpoint: n.Node("ue").Endpoint()}}
	ueClient.SetRand(rand.New(rand.NewSource(55)))
	adns := netip.AddrPortFrom(n.Node("ldns").Addr, 53)

	start := n.Now()
	resp, err := ueClient.Query(context.Background(), adns, "img.cdn.example.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	coldRTT := n.Now() - start
	if len(resp.Answers) != 1 {
		t.Fatalf("cold answers = %d", len(resp.Answers))
	}
	// 10 + (40 + 1 + 40) + 1 + 10 = 102ms.
	if coldRTT != 102*time.Millisecond {
		t.Errorf("cold rtt = %v, want 102ms", coldRTT)
	}

	start = n.Now()
	if _, err = ueClient.Query(context.Background(), adns, "img.cdn.example.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	warmRTT := n.Now() - start
	// 10 + 1 + 10 = 21ms: the hierarchical lookup is gone.
	if warmRTT != 21*time.Millisecond {
		t.Errorf("warm rtt = %v, want 21ms", warmRTT)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v", s)
	}
}
