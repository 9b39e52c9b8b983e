package dnsserver

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/vclock"
)

// echoSourceScope makes ecsAnswerHandler echo scope = the query's
// source prefix (an authority tailoring as finely as clients disclose).
const echoSourceScope = 255

// ecsAnswerHandler answers with an A record and echoes the query's ECS
// option at the given scope (or the source prefix for echoSourceScope),
// per RFC 7871 §7.2.1.
func ecsAnswerHandler(addr string, scope uint8) Handler {
	return HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		m := new(dnswire.Message)
		m.SetReply(r.Msg)
		m.Answers = []dnswire.RR{&dnswire.A{
			Hdr:  dnswire.RRHeader{Name: r.Name(), Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30},
			Addr: netip.MustParseAddr(addr),
		}}
		if ecs, ok := r.Msg.ECS(); ok {
			echo := *ecs
			if scope == echoSourceScope {
				echo.ScopePrefix = ecs.SourcePrefix
			} else {
				echo.ScopePrefix = scope
			}
			opt := m.SetEDNS(dnswire.DefaultEDNSSize)
			opt.Options = append(opt.Options, &echo)
		}
		return m.Rcode, w.WriteMsg(m)
	})
}

// ecsQueryFor builds an A query for name disclosing the given subnet.
func ecsQueryFor(name, prefix string) *Request {
	r := queryFor(name)
	opt := r.Msg.SetEDNS(1232)
	opt.Options = append(opt.Options, dnswire.NewECSOption(netip.MustParsePrefix(prefix)))
	return r
}

// A /16-scoped answer must serve every sibling /24 from one cache
// entry — the acceptance-criteria behavior — while a different /16
// still resolves its own.
func TestCacheScopedAnswerSharedAcrossSiblings(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 16)}
	h := Chain(cache, backend)

	resp := Resolve(context.Background(), h, ecsQueryFor("scoped.test.", "10.1.1.0/24"))
	if backend.hits.Load() != 1 {
		t.Fatalf("first query: backend hits = %d", backend.hits.Load())
	}
	ecs, ok := resp.ECS()
	if !ok || ecs.ScopePrefix != 16 {
		t.Fatalf("first response ECS = %v %v, want scope 16", ecs, ok)
	}

	// Sibling /24 inside the same /16: served from the same entry.
	resp = Resolve(context.Background(), h, ecsQueryFor("scoped.test.", "10.1.2.0/24"))
	if backend.hits.Load() != 1 {
		t.Errorf("sibling /24 went upstream: backend hits = %d, want 1", backend.hits.Load())
	}
	ecs, ok = resp.ECS()
	if !ok {
		t.Fatal("cached response lost its ECS option")
	}
	// RFC 7871 §7.2.1: the echo mirrors *this* query's address and
	// source, keeping the stored answer's scope.
	if want := netip.MustParseAddr("10.1.2.0"); ecs.Address != want || ecs.SourcePrefix != 24 || ecs.ScopePrefix != 16 {
		t.Errorf("sibling echo = %s/%d/%d, want %s/24/16",
			ecs.Address, ecs.SourcePrefix, ecs.ScopePrefix, want)
	}

	// A /24 in a different /16 is outside the stored scope: resolves.
	Resolve(context.Background(), h, ecsQueryFor("scoped.test.", "10.2.1.0/24"))
	if backend.hits.Load() != 2 {
		t.Errorf("different /16: backend hits = %d, want 2", backend.hits.Load())
	}

	s := cache.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want 1/2", s.Hits, s.Misses)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2 (one per /16 scope key)", s.Entries)
	}
}

// An answer without ECS (or scoped /0) is valid for every address
// (RFC 7871 §7.2.2): one entry serves all disclosed subnets.
func TestCacheScopeZeroSharedGlobally(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: answerHandler("192.0.2.9")} // no ECS echo
	h := Chain(cache, backend)
	Resolve(context.Background(), h, ecsQueryFor("zero.test.", "10.1.0.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("zero.test.", "172.16.0.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("zero.test.", "192.0.2.0/24"))
	if backend.hits.Load() != 1 {
		t.Errorf("scope-0 answer fragmented: backend hits = %d, want 1", backend.hits.Load())
	}
	// A non-ECS query for the same name keys separately from scope-0
	// ECS entries (the ECS suffix is part of the key).
	Resolve(context.Background(), h, queryFor("zero.test."))
	if backend.hits.Load() != 2 {
		t.Errorf("plain query: backend hits = %d, want 2", backend.hits.Load())
	}
}

// The same scope semantics must hold for IPv6 disclosures, whose
// scope-hint bits live beyond the first mask word.
func TestCacheScopedV6(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", 48)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, ecsQueryFor("six.test.", "2001:db8:7:1::/64"))
	Resolve(context.Background(), h, ecsQueryFor("six.test.", "2001:db8:7:2::/64"))
	if backend.hits.Load() != 1 {
		t.Errorf("sibling /64 inside the /48 scope went upstream: hits = %d", backend.hits.Load())
	}
	Resolve(context.Background(), h, ecsQueryFor("six.test.", "2001:db8:8:1::/64"))
	if backend.hits.Load() != 2 {
		t.Errorf("different /48: hits = %d, want 2", backend.hits.Load())
	}
}

// A narrower-scoped entry must not answer a query that disclosed less
// than the scope: a /24-scoped entry is invisible to a /16 disclosure.
func TestCacheScopeNeverExceedsDisclosure(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)
	Resolve(context.Background(), h, ecsQueryFor("narrow.test.", "10.1.1.0/24"))
	Resolve(context.Background(), h, ecsQueryFor("narrow.test.", "10.1.0.0/16"))
	if backend.hits.Load() != 2 {
		t.Errorf("/16 disclosure used a /24-scoped entry: hits = %d, want 2", backend.hits.Load())
	}
}

// ECS hits — live, stale, and a coalesced stale waiter — are served
// from the stored wire image with the echo rewritten for each query:
// the bytes equal the decode → age/clamp → echo → repack reference for
// every writer, whether the query's source length matches the one that
// stored the entry (/24) or not, so the option must be spliced (/16,
// /32) or only its source prefix rewritten (/20).
func TestECSWireAndDecodePathsAgree(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	cache.MaxStale = time.Hour
	cache.StaleTTL = 5 * time.Second
	var failing atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	answer := ecsAnswerHandler("192.0.2.9", 16)
	backend := &countingPlugin{h: HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		if failing.Load() {
			if r.Msg.ID == 0x1EAD {
				close(entered)
				<-release
			}
			return dnswire.RcodeServerFailure, errors.New("origin down")
		}
		return answer.ServeDNS(ctx, w, r)
	})}
	h := Chain(cache, backend)

	stored := Resolve(context.Background(), h, ecsQueryFor("wireecs.test.", "10.1.1.0/24"))
	if stored.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("warm rcode = %v", stored.Rcode)
	}
	q := func(prefix string, id uint16) *Request {
		r := ecsQueryFor("wireecs.test.", prefix)
		r.Msg.ID = id
		return r
	}
	prefixes := []string{"10.1.2.0/24", "10.1.0.0/16", "10.1.16.0/20", "10.1.7.9/32"}

	clock.Advance(10 * time.Second)
	for _, prefix := range prefixes {
		for _, kind := range writerKinds {
			r := q(prefix, 0x7A7A)
			if got, want := serveVia(t, h, kind, r), referenceHit(t, stored, r, ageBy(10)); !bytes.Equal(got, want) {
				t.Fatalf("live %s %s: hit differs from the reference:\n% x\n% x", prefix, kind, got, want)
			}
		}
	}
	if backend.hits.Load() != 1 {
		t.Fatalf("backend hits = %d, want 1: every query above is a scoped hit", backend.hits.Load())
	}
	var got dnswire.Message
	if err := got.Unpack(serveVia(t, h, "wire", q("10.1.2.0/24", 1))); err != nil {
		t.Fatal(err)
	}
	ecs, ok := got.ECS()
	if !ok {
		t.Fatal("served response lost ECS")
	}
	if want := netip.MustParseAddr("10.1.2.0"); ecs.Address != want || ecs.SourcePrefix != 24 || ecs.ScopePrefix != 16 {
		t.Errorf("echo = %s/%d/%d, want %s/24/16", ecs.Address, ecs.SourcePrefix, ecs.ScopePrefix, want)
	}
	if len(got.Answers) != 1 || got.Answers[0].Header().TTL != 20 {
		t.Errorf("answers = %v, want one A aged to TTL 20", got.Answers)
	}

	// Past expiry with the origin down every query is a stale serve,
	// TTLs clamped to StaleTTL.
	clock.Advance(30 * time.Second)
	failing.Store(true)
	for _, prefix := range prefixes {
		for _, kind := range writerKinds {
			r := q(prefix, 0x5A1E)
			if got, want := serveVia(t, h, kind, r), referenceHit(t, stored, r, clampTo(5)); !bytes.Equal(got, want) {
				t.Fatalf("stale %s %s: serve differs from the reference:\n% x\n% x", prefix, kind, got, want)
			}
		}
	}

	// A waiter coalesced on a refill that fails gets the stale answer,
	// restamped for its own query.
	leader := make(chan []byte)
	go func() {
		sink := &wireSink{}
		ResolveTo(context.Background(), h, sink, q("10.1.2.0/24", 0x1EAD))
		leader <- sink.wire
	}()
	<-entered
	coalesced := cache.Stats().Coalesced
	waiter := make(chan []byte)
	wr := q("10.1.2.0/24", 0x3A17)
	wr.Msg.RecursionDesired = true
	go func() {
		sink := &wireSink{}
		ResolveTo(context.Background(), h, sink, wr)
		waiter <- sink.wire
	}()
	waitFor(t, 5*time.Second, func() bool { return cache.Stats().Coalesced > coalesced })
	close(release)
	if got, want := <-waiter, referenceHit(t, stored, wr, clampTo(5)); !bytes.Equal(got, want) {
		t.Fatalf("stale waiter differs from the reference:\n% x\n% x", got, want)
	}
	if got, want := <-leader, referenceHit(t, stored, q("10.1.2.0/24", 0x1EAD), clampTo(5)); !bytes.Equal(got, want) {
		t.Fatalf("stale leader differs from the reference:\n% x\n% x", got, want)
	}
}

// An answer with records after its OPT is cached with OPT moved to
// the end of the additional section, so the ECS echo can be resized;
// the answer the client first got keeps its original order.
func TestCacheStoresOPTLast(t *testing.T) {
	glue := &dnswire.A{Hdr: dnswire.RRHeader{Name: "ns.optlast.test.", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 30}, Addr: netip.MustParseAddr("192.0.2.53")}
	answer := ecsAnswerHandler("192.0.2.9", 16)
	backend := pluginize(HandlerFunc(func(ctx context.Context, w ResponseWriter, r *Request) (dnswire.Rcode, error) {
		rec := &recorder{}
		if _, err := answer.ServeDNS(ctx, rec, r); err != nil {
			return dnswire.RcodeServerFailure, err
		}
		rec.msg.Additionals = append(rec.msg.Additionals, glue) // OPT first
		return rec.msg.Rcode, w.WriteMsg(rec.msg)
	}))
	h := Chain(NewCache(&vclock.Fixed{}), backend)

	first := Resolve(context.Background(), h, ecsQueryFor("optlast.test.", "10.1.1.0/24"))
	if len(first.Additionals) != 2 || first.Additionals[1] != glue {
		t.Fatalf("miss answer additionals = %v, want OPT then glue", first.Additionals)
	}
	stored := *first
	stored.Additionals = []dnswire.RR{glue, first.Additionals[0]}
	q := ecsQueryFor("optlast.test.", "10.1.0.0/16")
	if got, want := serveVia(t, h, "wire", q), referenceHit(t, &stored, q, ageBy(0)); !bytes.Equal(got, want) {
		t.Fatalf("hit differs from the OPT-last reference:\n% x\n% x", got, want)
	}
}

// Ingress normalization: a query arriving with a nonzero scope or
// stray host bits is scrubbed before the cache keys on it, so hostile
// variants of the same disclosure cannot fragment the cache.
func TestQueryECSNormalizedAtIngress(t *testing.T) {
	clock := &vclock.Fixed{}
	cache := NewCache(clock)
	backend := &countingPlugin{h: ecsAnswerHandler("192.0.2.9", echoSourceScope)}
	h := Chain(cache, backend)

	dirty := queryFor("norm.test.")
	opt := dirty.Msg.SetEDNS(1232)
	opt.Options = append(opt.Options, &dnswire.ECSOption{
		Family:       1,
		SourcePrefix: 24,
		ScopePrefix:  13,                               // must be zero in queries
		Address:      netip.MustParseAddr("10.1.1.77"), // stray host bits
	})
	resp := Resolve(context.Background(), h, dirty)
	ecs, ok := resp.ECS()
	if !ok {
		t.Fatal("response lacks ECS")
	}
	if want := netip.MustParseAddr("10.1.1.0"); ecs.Address != want {
		t.Errorf("echoed address = %v, want masked %v", ecs.Address, want)
	}

	// The clean form of the same disclosure hits the same entry.
	Resolve(context.Background(), h, ecsQueryFor("norm.test.", "10.1.1.0/24"))
	if backend.hits.Load() != 1 {
		t.Errorf("normalized duplicate went upstream: hits = %d, want 1", backend.hits.Load())
	}
}
