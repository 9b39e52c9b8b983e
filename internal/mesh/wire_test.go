package mesh

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func testBitmap(names ...string) ([]byte, int) {
	d := NewDigest(512, 4)
	for _, n := range names {
		d.Add(n)
	}
	return d.Bitmap(), d.Hashes()
}

func TestAnnounceRoundTrip(t *testing.T) {
	bitmap, k := testBitmap("seg-0001", "seg-0002")
	payload, err := EncodeAnnounce("mec-east", "10.1.0.5", 7, 2, 0.42, k, bitmap)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := DecodeAnnounce(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Site != "mec-east" || ann.Addr != "10.1.0.5" || ann.Gen != 7 || ann.Entries != 2 {
		t.Fatalf("decoded %+v", ann)
	}
	if ann.Load < 0.41 || ann.Load > 0.43 {
		t.Fatalf("load %v, want ~0.42", ann.Load)
	}
	if !ann.Filter.Contains("seg-0001") || !ann.Filter.Contains("seg-0002") {
		t.Fatal("decoded filter lost entries")
	}
	if ann.Filter.Bits() != 512 {
		t.Fatalf("filter bits %d, want 512", ann.Filter.Bits())
	}
}

func TestEncodeAnnounceRejects(t *testing.T) {
	bitmap, k := testBitmap()
	long := string(bytes.Repeat([]byte("x"), MaxNameLen+1))
	cases := []struct {
		name string
		err  func() error
	}{
		{"empty site", func() error { _, e := EncodeAnnounce("", "", 1, 0, 0, k, bitmap); return e }},
		{"long site", func() error { _, e := EncodeAnnounce(long, "", 1, 0, 0, k, bitmap); return e }},
		{"long addr", func() error { _, e := EncodeAnnounce("s", long, 1, 0, 0, k, bitmap); return e }},
		{"neg entries", func() error { _, e := EncodeAnnounce("s", "", 1, -1, 0, k, bitmap); return e }},
		{"huge entries", func() error { _, e := EncodeAnnounce("s", "", 1, MaxEntries+1, 0, k, bitmap); return e }},
		{"tiny bitmap", func() error { _, e := EncodeAnnounce("s", "", 1, 0, 0, k, make([]byte, 4)); return e }},
		{"bad k", func() error { _, e := EncodeAnnounce("s", "", 1, 0, 0, 0, bitmap); return e }},
	}
	for _, c := range cases {
		if c.err() == nil {
			t.Errorf("%s: encode accepted", c.name)
		}
	}
}

// TestDecodeAnnounceMalformed drives the decoder with truncations at
// every length plus targeted field corruptions; none may panic and all
// must error.
func TestDecodeAnnounceMalformed(t *testing.T) {
	bitmap, k := testBitmap("seg-0001")
	good, err := EncodeAnnounce("mec-east", "10.1.0.5", 3, 1, 0.5, k, bitmap)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a valid datagram must be rejected.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeAnnounce(good[:i]); err == nil {
			t.Fatalf("decoder accepted %d-byte truncation", i)
		}
	}
	// Trailing garbage breaks the exact-length bitmap contract.
	if _, err := DecodeAnnounce(append(append([]byte{}, good...), 0xff)); err == nil {
		t.Fatal("decoder accepted trailing garbage")
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte{}, good...)
		mut(b)
		return b
	}
	base := len(AnnouncePrefix)
	cases := []struct {
		name string
		b    []byte
	}{
		{"bad verb", []byte("BOGUS " + string(good))},
		{"bad version", corrupt(func(b []byte) { b[base] = 99 })},
		{"zero site len", corrupt(func(b []byte) { b[base+5] = 0 })},
		{"site len overruns", corrupt(func(b []byte) { b[base+5] = 255 })},
		{"addr len overruns", corrupt(func(b []byte) { b[base+5+1+8] = 255 })},
	}
	for _, c := range cases {
		if _, err := DecodeAnnounce(c.b); err == nil {
			t.Errorf("%s: decoder accepted", c.name)
		}
	}
	// Random flips must never panic (errors are fine; some flips land
	// in the bitmap and still decode).
	for i := range good {
		for _, bit := range []byte{0x01, 0x80} {
			b := append([]byte{}, good...)
			b[i] ^= bit
			DecodeAnnounce(b)
		}
	}
}

func TestDigestAckRoundTrip(t *testing.T) {
	gen, ok := DecodeDigestAck(EncodeDigestAck(4294967295))
	if !ok || gen != 4294967295 {
		t.Fatalf("ack round trip: gen=%d ok=%v", gen, ok)
	}
	if _, ok := DecodeDigestAck([]byte("PONG")); ok {
		t.Fatal("accepted non-ack")
	}
	if _, ok := DecodeDigestAck([]byte("DIGEST banana")); ok {
		t.Fatal("accepted non-numeric ack")
	}
}

func TestGenNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{2, 1, true},
		{1, 2, false},
		{1, 1, false},
		{0, 4294967295, true}, // wrap
		{4294967295, 0, false},
	}
	for _, c := range cases {
		if got := genNewer(c.a, c.b); got != c.want {
			t.Errorf("genNewer(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// FuzzMeshWire: the mesh datagram decoders read untrusted bytes from
// peers. DecodeAnnounce and DecodeDigestAck must never panic, and
// whatever they accept must encode back: an accepted announce to the
// very same bytes (its format has exactly one encoding), an accepted
// acknowledgement to one that decodes to the same generation.
func FuzzMeshWire(f *testing.F) {
	bitmap, k := testBitmap("seg-0001", "seg-0002")
	if payload, err := EncodeAnnounce("mec-east", "10.1.0.5", 7, 2, 0.42, k, bitmap); err == nil {
		f.Add(payload)
	}
	if payload, err := EncodeAnnounce("m", "", 1<<31, 0, 1, MaxDigestHashes, make([]byte, MinDigestBits/8)); err == nil {
		f.Add(payload)
	}
	f.Add(EncodeDigestAck(42))
	f.Add([]byte("DIGEST 4294967296"))
	f.Add([]byte(AnnouncePrefix))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := DecodeAnnounce(data); err == nil {
			bm := make([]byte, 0, len(a.Filter.words)*8)
			for _, w := range a.Filter.words {
				bm = binary.LittleEndian.AppendUint64(bm, w)
			}
			again, err := EncodeAnnounce(a.Site, a.Addr, a.Gen, a.Entries, a.Load, a.Filter.k, bm)
			if err != nil {
				t.Fatalf("decoded announce %+v does not encode: %v", a, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("announce round trip changed the bytes:\n% x\n% x", data, again)
			}
		}
		if gen, ok := DecodeDigestAck(data); ok {
			if back, ok := DecodeDigestAck(EncodeDigestAck(gen)); !ok || back != gen {
				t.Fatalf("ack generation %d round-trips to %d (ok=%v)", gen, back, ok)
			}
		}
	})
}
