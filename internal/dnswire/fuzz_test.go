//go:build go1.18

package dnswire

import (
	"bytes"
	"net/netip"
	"testing"
)

// Seed corpus: packed forms of representative messages, so the fuzzer
// starts from structurally valid inputs.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	m := new(Message)
	m.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
	if wire, err := m.Pack(); err == nil {
		f.Add(wire)
	}
	resp := new(Message)
	resp.SetQuestion("edge.mycdn.ciab.test.", TypeA)
	resp.Response = true
	resp.Answers = []RR{
		&CNAME{Hdr: RRHeader{Name: "edge.mycdn.ciab.test.", Type: TypeCNAME, Class: ClassINET, TTL: 30}, Target: "pop.other.example."},
	}
	resp.SetEDNS(1232)
	if wire, err := resp.Pack(); err == nil {
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xC0}, 64)) // pointer storm
}

// FuzzMessageUnpack: Unpack must never panic, and anything it accepts
// must re-pack and re-unpack to an equivalent wire form (canonical
// fixed point).
func FuzzMessageUnpack(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unpack(data); err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Some accepted messages cannot repack (e.g. extended
			// rcode reconstructed without OPT after section drops);
			// that is allowed, only panics are not.
			return
		}
		var m2 Message
		if err := m2.Unpack(repacked); err != nil {
			t.Fatalf("repacked message does not unpack: %v", err)
		}
		again, err := m2.Pack()
		if err != nil {
			t.Fatalf("second pack failed: %v", err)
		}
		if !bytes.Equal(repacked, again) {
			t.Fatalf("pack not a fixed point:\n% x\n% x", repacked, again)
		}
	})
}

// FuzzTTLPatch: the in-place wire patch path (ParseLayout + AgeTTLs +
// PatchID) must produce bytes identical to the reference path that
// decodes the message, ages each RR TTL, and re-packs. This is the
// invariant the wire-level response cache rests on.
func FuzzTTLPatch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		wire, l, ok := cacheableImage(t, data)
		if !ok {
			return
		}
		for _, age := range []uint32{0, 1, 30, 1 << 20} {
			patched := append([]byte(nil), wire...)
			AgeTTLs(patched, l.TTLs, age)
			PatchID(patched, 0x5aa5)
			ref, err := referencePatch(wire, 0x5aa5, wire[2]&byte(flagRD>>8) != 0, wire[3]&byte(flagCD) != 0, ageTTL(age), nil)
			if err != nil {
				t.Fatalf("reference repack failed: %v", err)
			}
			if !bytes.Equal(patched, ref) {
				t.Fatalf("age %d: in-place patch != decode-age-repack:\n% x\n% x", age, patched, ref)
			}
		}
	})
}

// FuzzHitPatch: a cache hit served by patching the stored image — ID,
// RD/CD, TTLs aged (live) or clamped (stale), and the ECS echo
// rewritten for the query, spliced when the address length differs —
// must equal the reference that decodes the image, makes the same
// edits and packs again, for plain, EDNS0 and ECS queries alike.
func FuzzHitPatch(f *testing.F) {
	for _, stored := range []string{"10.1.0.0/16", "10.1.1.0/24", "0.0.0.0/0", "2001:db8::/48"} {
		for _, scope := range []uint8{0, 16, 24} {
			resp := new(Message)
			resp.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
			resp.Response = true
			resp.Answers = []RR{&A{Hdr: RRHeader{Name: "video.demo1.mycdn.ciab.test.", Type: TypeA, Class: ClassINET, TTL: 30}, Addr: netip.MustParseAddr("192.0.2.7")}}
			opt := resp.SetEDNS(1232)
			opt.Options = append(opt.Options, &GenericOption{OptCode: OptionCodeCookie, Data: []byte("cookie01")})
			echo := NewECSOption(netip.MustParsePrefix(stored))
			echo.ScopePrefix = scope
			opt.Options = append(opt.Options, echo, &GenericOption{OptCode: OptionCodePadding, Data: make([]byte, 3)})
			wire, err := resp.Pack()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(wire, uint8(1), uint8(20), []byte{10, 1, 2, 0}, uint32(10), false, uint16(0xBEEF), uint8(1))
			f.Add(wire, uint8(2), uint8(56), []byte{0x20, 1, 0xd, 0xb8, 0, 7}, uint32(1<<20), true, uint16(7), uint8(3))
		}
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint8(0), []byte{}, uint32(0), false, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, family, source uint8, addr []byte, secs uint32, stale bool, id uint16, bits uint8) {
		wire, l, ok := cacheableImage(t, data)
		if !ok {
			return
		}
		// family 0 is a query without ECS; 1 and 2 carry one of that
		// family at any valid source length.
		var q *ECSOption
		if family %= 3; family != 0 {
			var a16 [16]byte
			copy(a16[:], addr)
			q = &ECSOption{Family: uint16(family), Address: netip.AddrFrom16(a16)}
			if family == 1 {
				q.Address = netip.AddrFrom4([4]byte(a16[:4]))
			}
			q.SourcePrefix = source % uint8(q.Address.BitLen()+1)
			q.NormalizeQuery()
		}
		rd, cd := bits&1 != 0, bits&2 != 0
		patchTTL, refTTL := AgeTTLs, ageTTL(secs)
		if stale {
			patchTTL, refTTL = ClampTTLs, func(ttl uint32) uint32 { return min(ttl, secs) }
		}

		buf := make([]byte, len(wire), MaxMessageSize)
		copy(buf, wire)
		PatchID(buf, id)
		PatchReplyBits(buf, rd, cd)
		patchTTL(buf, l.TTLs, secs)
		got, err := buf, error(nil)
		if q != nil && l.ECS != 0 {
			got, err = PatchECS(buf, &l, q)
		}
		want, refErr := referencePatch(wire, id, rd, cd, refTTL, q)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("patch error %v, reference error %v", err, refErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("patched hit != decode-patch-repack:\n% x\n% x", got, want)
		}
	})
}

// cacheableImage is the store side of the cache: the canonical packed
// form of data and its Layout. It reports false for inputs the cache
// would not hold — data that does not decode or re-pack, or whose OPT
// record is not its last record — and fails the test if ParseLayout
// rejects any other packed message.
func cacheableImage(t *testing.T, data []byte) ([]byte, Layout, bool) {
	var m Message
	if err := m.Unpack(data); err != nil {
		return nil, Layout{}, false
	}
	wire, err := m.Pack()
	if err != nil {
		return nil, Layout{}, false
	}
	l, err := ParseLayout(wire)
	if err != nil {
		rrs := append(append(append([]RR(nil), m.Answers...), m.Authorities...), m.Additionals...)
		for i, rr := range rrs {
			if rr.Header().Type == TypeOPT && i != len(rrs)-1 {
				return nil, Layout{}, false
			}
		}
		// Pack output must always be walkable; anything Pack emits
		// that ParseLayout rejects is a bug in one of them.
		t.Fatalf("ParseLayout rejects packed message: %v\n% x", err, wire)
	}
	return wire, l, true
}

// ageTTL is the reference TTL edit of a live hit.
func ageTTL(age uint32) func(uint32) uint32 {
	return func(ttl uint32) uint32 {
		if ttl > age {
			return ttl - age
		}
		return 0
	}
}

// referencePatch is the decoded oracle for a patched hit: decode the
// stored image, restamp ID and RD/CD, rewrite every TTL outside OPT,
// echo q's family, source prefix and address in the ECS option while
// keeping its scope, and pack again.
func referencePatch(wire []byte, id uint16, rd, cd bool, ttl func(uint32) uint32, q *ECSOption) ([]byte, error) {
	var ref Message
	if err := ref.Unpack(wire); err != nil {
		return nil, err
	}
	ref.ID, ref.RecursionDesired, ref.CheckingDisabled = id, rd, cd
	for _, section := range [][]RR{ref.Answers, ref.Authorities, ref.Additionals} {
		for _, rr := range section {
			if rr.Header().Type != TypeOPT {
				rr.Header().TTL = ttl(rr.Header().TTL)
			}
		}
	}
	if ecs, ok := ref.ECS(); ok && q != nil {
		ecs.Family, ecs.SourcePrefix, ecs.Address = q.Family, q.SourcePrefix, q.Address
	}
	return ref.Pack()
}

// FuzzNameUnpack: name decompression must never panic or over-read.
func FuzzNameUnpack(f *testing.F) {
	f.Add([]byte{3, 'c', 'o', 'm', 0}, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{1, '*', 0xC0, 0x00}, 2)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 {
			off = -off
		}
		if len(data) > 0 {
			off %= len(data)
		} else {
			off = 0
		}
		name, end, err := unpackName(data, off)
		if err != nil {
			return
		}
		if end < 0 || end > len(data) {
			t.Fatalf("end %d out of bounds (len %d)", end, len(data))
		}
		// Decoded names must re-encode.
		if _, err := packName(nil, name, nil); err != nil {
			t.Fatalf("decoded name %q does not re-pack: %v", name, err)
		}
	})
}
