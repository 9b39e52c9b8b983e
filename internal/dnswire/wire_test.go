package dnswire

import (
	"bytes"
	"net/netip"
	"testing"
)

// testResponse builds a response with answers in every section, an
// OPT record, and compressed names — the shape the wire cache stores.
func testResponse(t testing.TB) *Message {
	t.Helper()
	m := new(Message)
	m.SetQuestion("video.demo1.mycdn.ciab.test.", TypeA)
	m.Response = true
	m.RecursionDesired = true
	m.Answers = []RR{
		&CNAME{Hdr: RRHeader{Name: "video.demo1.mycdn.ciab.test.", Type: TypeCNAME, Class: ClassINET, TTL: 300}, Target: "edge.site.mycdn.ciab.test."},
		&A{Hdr: RRHeader{Name: "edge.site.mycdn.ciab.test.", Type: TypeA, Class: ClassINET, TTL: 60}, Addr: netip.MustParseAddr("192.0.2.7")},
	}
	m.Authorities = []RR{
		&NS{Hdr: RRHeader{Name: "mycdn.ciab.test.", Type: TypeNS, Class: ClassINET, TTL: 3600}, NS: "ns1.mycdn.ciab.test."},
	}
	m.SetEDNS(1232)
	return m
}

func TestTTLOffsets(t *testing.T) {
	m := testResponse(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	l, err := ParseLayout(wire)
	if err != nil {
		t.Fatal(err)
	}
	offs := l.TTLs
	// Three non-OPT records; the OPT TTL (extended rcode) is excluded.
	if len(offs) != 3 {
		t.Fatalf("got %d TTL offsets, want 3: %v", len(offs), offs)
	}
	want := []uint32{300, 60, 3600}
	for i, off := range offs {
		ttl := uint32(wire[off])<<24 | uint32(wire[off+1])<<16 | uint32(wire[off+2])<<8 | uint32(wire[off+3])
		if ttl != want[i] {
			t.Errorf("offset %d reads TTL %d, want %d", off, ttl, want[i])
		}
	}
}

func TestAgeTTLsMatchesDecodePath(t *testing.T) {
	m := testResponse(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	l, err := ParseLayout(wire)
	if err != nil {
		t.Fatal(err)
	}
	offs := l.TTLs
	for _, age := range []uint32{0, 1, 59, 60, 61, 299, 1 << 30} {
		patched := append([]byte(nil), wire...)
		AgeTTLs(patched, offs, age)

		// Reference: decode, age, re-encode.
		var ref Message
		if err := ref.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		for _, section := range [][]RR{ref.Answers, ref.Authorities, ref.Additionals} {
			for _, rr := range section {
				if rr.Header().Type == TypeOPT {
					continue
				}
				if rr.Header().TTL > age {
					rr.Header().TTL -= age
				} else {
					rr.Header().TTL = 0
				}
			}
		}
		refWire, err := ref.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(patched, refWire) {
			t.Errorf("age %d: patched wire differs from decode-age-repack:\n% x\n% x", age, patched, refWire)
		}
	}
}

func TestPatchID(t *testing.T) {
	m := testResponse(t)
	m.ID = 0x1234
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	PatchID(wire, 0xBEEF)
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xBEEF {
		t.Fatalf("patched ID = %#x, want 0xBEEF", got.ID)
	}
}

func TestPatchReplyBits(t *testing.T) {
	for _, tc := range []struct{ rd, cd bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		m := testResponse(t)
		m.RecursionDesired = !tc.rd // stored with the opposite bits
		m.CheckingDisabled = !tc.cd
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		PatchReplyBits(wire, tc.rd, tc.cd)
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		if got.RecursionDesired != tc.rd || got.CheckingDisabled != tc.cd {
			t.Errorf("rd/cd = %v/%v, want %v/%v", got.RecursionDesired, got.CheckingDisabled, tc.rd, tc.cd)
		}
		if !got.Response || got.Rcode != m.Rcode || !got.AuthenticatedData == m.AuthenticatedData && m.AuthenticatedData {
			t.Errorf("unrelated flags disturbed: %v", &got)
		}
	}
}

func TestTTLOffsetsMalformed(t *testing.T) {
	m := testResponse(t)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// A record after OPT would move when PatchECS resizes the option.
	m.Additionals = append(m.Additionals, &A{Hdr: RRHeader{Name: "x.test.", Type: TypeA, Class: ClassINET, TTL: 5}, Addr: netip.MustParseAddr("192.0.2.8")})
	afterOPT, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		nil,
		wire[:8],
		wire[:len(wire)-3], // truncated mid-record
		append(wire, 0),    // trailing garbage
		afterOPT,
	} {
		if _, err := ParseLayout(bad); err == nil {
			t.Errorf("ParseLayout(%d bytes) accepted malformed input", len(bad))
		}
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(b) != MaxMessageSize {
		t.Fatalf("pooled buffer length = %d, want %d", len(b), MaxMessageSize)
	}
	PutBuffer(b[:17]) // short views of pooled buffers are restored to full size
	PutBuffer(make([]byte, 16))
	c := GetBuffer()
	if len(c) != MaxMessageSize {
		t.Fatalf("recycled buffer length = %d, want %d", len(c), MaxMessageSize)
	}
	PutBuffer(c)
}

func TestClampTTLs(t *testing.T) {
	m := testResponse(t) // TTLs 300 (CNAME), 60 (A), 3600 (NS), plus OPT
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	l, err := ParseLayout(wire)
	if err != nil {
		t.Fatal(err)
	}
	offs := l.TTLs
	ClampTTLs(wire, offs, 100)
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	// TTLs above the clamp come down to it; those at or below keep
	// their value — the stale clamp never grants lifetime or zeroes.
	if ttl := got.Answers[0].Header().TTL; ttl != 100 {
		t.Errorf("CNAME TTL = %d, want clamped to 100", ttl)
	}
	if ttl := got.Answers[1].Header().TTL; ttl != 60 {
		t.Errorf("A TTL = %d, want untouched 60", ttl)
	}
	if ttl := got.Authorities[0].Header().TTL; ttl != 100 {
		t.Errorf("NS TTL = %d, want clamped to 100", ttl)
	}
	// The OPT TTL carries flags, not a lifetime; its offset was never
	// recorded, so the EDNS payload survives clamping.
	opt, ok := got.OPT()
	if !ok || opt.UDPSize() != 1232 {
		t.Errorf("OPT record disturbed by clamp: ok=%v", ok)
	}
}
