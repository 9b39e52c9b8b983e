package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"slices"
)

const (
	// cdnDomain is the CDN domain the C-DNS routes and the L-DNS
	// stubs to it.
	cdnDomain = "cdn.bench.test."
	// mecZone is the L-DNS's own authoritative zone (dnsd -zone).
	mecZone = "mec.bench.test."
	// numPoPs is how many PoPs the routes file maps prefixes onto.
	numPoPs = 16
	// hotNames and hotSubnets size the ldns-hit hot set: every
	// name × shape × subnet answer fits dnsd's default 4096-entry
	// cache.
	hotNames   = 128
	hotSubnets = 8
)

// popAddr is the edge address a PoP answers with (dnsd -pop id=addr).
func popAddr(pop int) [4]byte { return [4]byte{10, 200, 0, byte(pop)} }

type routeRow struct {
	prefix uint32
	bits   int
	pop    int
}

// topology is the seeded subnet→PoP table both daemons' routes file
// is written from, plus an independent longest-prefix lookup the
// answer checker uses.
type topology struct {
	rows    []routeRow
	byLen   map[int]map[uint32]int // prefix length → masked prefix → PoP
	lens    []int                  // prefix lengths present, longest first
	loopPoP int                    // PoP of the 127.0.0.0/8 row
}

// newTopology draws about n IPv4 routes of lengths /16, /20 and /24
// (overlaps allowed; the longest match wins) plus a 127.0.0.0/8 row,
// so queries without ECS route by the L-DNS's loopback source.
func newTopology(seed int64, n int) *topology {
	rng := rand.New(rand.NewSource(seed))
	t := &topology{byLen: map[int]map[uint32]int{}, loopPoP: 1 + rng.Intn(numPoPs)}
	t.add(127<<24, 8, t.loopPoP)
	mix := []struct {
		bits  int
		share int // per 100 rows
	}{{16, 4}, {20, 16}, {24, 80}}
	for _, m := range mix {
		for i := 0; i < n*m.share/100; i++ {
			first := uint32(1 + rng.Intn(223))
			if first == 10 || first == 127 {
				continue
			}
			addr := first<<24 | uint32(rng.Intn(1<<24))
			t.add(addr&mask(m.bits), m.bits, 1+rng.Intn(numPoPs))
		}
	}
	return t
}

func mask(bits int) uint32 { return ^uint32(0) << (32 - bits) }

func (t *topology) add(prefix uint32, bits, pop int) {
	m := t.byLen[bits]
	if m == nil {
		m = map[uint32]int{}
		t.byLen[bits] = m
		t.lens = append(t.lens, bits)
		slices.Sort(t.lens)
		slices.Reverse(t.lens)
	}
	if _, dup := m[prefix]; dup {
		return
	}
	m[prefix] = pop
	t.rows = append(t.rows, routeRow{prefix: prefix, bits: bits, pop: pop})
}

// lookup returns the PoP and matched length of the longest route
// covering addr.
func (t *topology) lookup(addr uint32) (pop, bits int, ok bool) {
	for _, l := range t.lens {
		if p, hit := t.byLen[l][addr&mask(l)]; hit {
			return p, l, true
		}
	}
	return 0, 0, false
}

// subnet draws a /24 inside a random non-loopback route.
func (t *topology) subnet(rng *rand.Rand) uint32 {
	for {
		r := t.rows[rng.Intn(len(t.rows))]
		if r.bits < 16 {
			continue
		}
		return (r.prefix | uint32(rng.Intn(1<<(32-r.bits)))) & mask(ecsSource)
	}
}

// expect returns the answer q must get.
func (t *topology) expect(q *query) expectation {
	if q.shape != shapeECS {
		return expectation{addr: popAddr(t.loopPoP), scope: -1}
	}
	pop, bits, _ := t.lookup(q.subnet)
	return expectation{addr: popAddr(pop), scope: bits}
}

// writeRoutes writes the table in the dnsd -routes format.
func (t *topology) writeRoutes(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range t.rows {
		a := netip.AddrFrom4([4]byte{byte(r.prefix >> 24), byte(r.prefix >> 16), byte(r.prefix >> 8), byte(r.prefix)})
		fmt.Fprintf(w, "%s %d\n", netip.PrefixFrom(a, r.bits), r.pop)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// popFlags returns the dnsd -pop flags mapping every PoP to its
// answer address.
func popFlags() []string {
	var args []string
	for p := 1; p <= numPoPs; p++ {
		a := popAddr(p)
		args = append(args, "-pop", fmt.Sprintf("%d=%s", p, netip.AddrFrom4(a)))
	}
	return args
}

// writeZone writes the L-DNS's small authoritative zone.
func writeZone(path string) error {
	zone := "@ 60 IN SOA ns." + mecZone + " admin." + mecZone + " 1 60 60 60 60\n" +
		"www 60 IN A 10.96.0.42\n"
	return os.WriteFile(path, []byte(zone), 0o644)
}

// stream yields a workload's queries in a deterministic order.
type stream interface {
	next(q *query)
}

// hotSet is the ldns-hit working set: names and ECS subnets small
// enough that the L-DNS cache holds every answer they produce.
type hotSet struct {
	names   []string
	subnets []uint32
}

func newHotSet(seed int64, t *topology) *hotSet {
	rng := rand.New(rand.NewSource(seed))
	h := &hotSet{}
	for i := 0; i < hotNames; i++ {
		h.names = append(h.names, fmt.Sprintf("hot-%d-%d.%s", i, rng.Intn(1e6), cdnDomain))
	}
	for i := 0; i < hotSubnets; i++ {
		h.subnets = append(h.subnets, t.subnet(rng))
	}
	return h
}

// warmup returns every query the hot set can produce, once.
func (h *hotSet) warmup() []query {
	var qs []query
	for _, n := range h.names {
		qs = append(qs, query{name: n, shape: shapePlain}, query{name: n, shape: shapeEDNS})
		for _, sub := range h.subnets {
			qs = append(qs, query{name: n, shape: shapeECS, subnet: sub})
		}
	}
	return qs
}

// hitStream cycles the query shapes over the hot set, picking names
// and subnets at random.
type hitStream struct {
	set *hotSet
	rng *rand.Rand
	i   int
}

func (s *hitStream) next(q *query) {
	q.name = s.set.names[s.rng.Intn(len(s.set.names))]
	q.shape = uint8(s.i % numShapes)
	q.subnet = s.set.subnets[s.rng.Intn(len(s.set.subnets))]
	s.i++
}

// missStream asks for a never-seen object name on every query, with
// ECS subnets drawn across the whole route table.
type missStream struct {
	rng  *rand.Rand
	topo *topology
	tag  string
	i    int
}

func newMissStream(seed int64, tag string, t *topology) *missStream {
	return &missStream{rng: rand.New(rand.NewSource(seed)), topo: t, tag: tag}
}

func (s *missStream) next(q *query) {
	q.name = fmt.Sprintf("obj-%s-%d-%d.%s", s.tag, s.i, s.rng.Intn(1e9), cdnDomain)
	q.shape = uint8(s.i % numShapes)
	q.subnet = s.topo.subnet(s.rng)
	s.i++
}

// sliceStream replays a fixed list of queries, then repeats it.
type sliceStream struct {
	qs []query
	i  int
}

func (s *sliceStream) next(q *query) {
	*q = s.qs[s.i%len(s.qs)]
	s.i++
}
