package dnswire

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// This file holds the wire-level fast-path helpers: a pool of
// MaxMessageSize packet buffers shared by the socket read loops,
// response packing, and the client transport, plus in-place patch
// helpers that let a cached packed response be re-served without the
// decode → clone → re-encode round trip. A cached hit then costs one
// buffer copy, a 2-byte ID patch, two flag-bit patches, and a fixed
// set of 4-byte TTL rewrites at offsets recorded once at insert time.

// bufPool recycles MaxMessageSize packet buffers. Entries are stored
// as *[]byte; the headers themselves circulate through boxPool so a
// steady-state Get/Put cycle allocates nothing at all — taking the
// address of a local []byte in PutBuffer would otherwise heap-box a
// fresh 24-byte header on every recycle, one allocation per packet.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, MaxMessageSize)
		return &b
	},
}

// boxPool recycles the *[]byte headers bufPool entries travel in.
// A header leaves boxPool emptied (nil slice) whenever its buffer is
// checked out, so a pooled box never pins a buffer the caller owns.
var boxPool = sync.Pool{}

// GetBuffer returns a packet buffer of length MaxMessageSize from the
// shared pool. Return it with PutBuffer when the packet has been
// fully consumed; the contents are not zeroed between uses.
func GetBuffer() []byte {
	p := bufPool.Get().(*[]byte)
	b := *p
	*p = nil
	boxPool.Put(p)
	poolTrackGet(b)
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer (or any slice
// with at least MaxMessageSize capacity; smaller slices are dropped,
// so callers may hand back foreign buffers safely). The caller must
// not touch b afterwards. Returning the same buffer twice corrupts a
// later response; build with -tags pooldebug to make that panic at
// the second Put instead.
func PutBuffer(b []byte) {
	if cap(b) < MaxMessageSize {
		return
	}
	b = b[:MaxMessageSize]
	poolTrackPut(b)
	var p *[]byte
	if v := boxPool.Get(); v != nil {
		p = v.(*[]byte)
	} else {
		p = new([]byte)
	}
	*p = b
	bufPool.Put(p)
}

// skipName advances past one wire-format name without decoding it.
// A compression pointer terminates the name in place (pointers are
// two bytes and always end the label sequence).
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, ErrBufferTooSmall
		}
		c := msg[off]
		switch {
		case c == 0:
			return off + 1, nil
		case c&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return 0, ErrBadPointer
			}
			return off + 2, nil
		case c&0xC0 != 0:
			return 0, fmt.Errorf("dnswire: reserved label type 0x%02x", c&0xC0)
		default:
			off += 1 + int(c)
		}
	}
}

// Layout locates the fields of a packed response that are patched when
// the image answers another query, so a serve patches bytes at known
// offsets instead of decoding and re-encoding the message.
type Layout struct {
	// TTLs holds the offset of every TTL field outside OPT, whose TTL
	// carries the extended rcode, not a lifetime.
	TTLs []int
	// OPTRDLen is the offset of the OPT record's RDLENGTH; 0 without OPT.
	OPTRDLen int
	// ECS and ECSEnd bound the first client-subnet option in the OPT
	// RDATA, from its OPTION-CODE to the end of its data; both are 0
	// when the message carries none.
	ECS, ECSEnd int
}

// ParseLayout walks a packed message and returns its Layout. It
// rejects a record after OPT (so at most one OPT, and last): with
// nothing behind it, PatchECS can resize the client-subnet option
// without moving any recorded offset.
func ParseLayout(wire []byte) (Layout, error) {
	var l Layout
	if len(wire) < 12 {
		return l, ErrShortMessage
	}
	qd := int(binary.BigEndian.Uint16(wire[4:]))
	rrs := int(binary.BigEndian.Uint16(wire[6:])) +
		int(binary.BigEndian.Uint16(wire[8:])) +
		int(binary.BigEndian.Uint16(wire[10:]))
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		if off, err = skipName(wire, off); err != nil {
			return l, err
		}
		off += 4 // type + class
		if off > len(wire) {
			return l, ErrBufferTooSmall
		}
	}
	for i := 0; i < rrs; i++ {
		if l.OPTRDLen != 0 {
			return l, fmt.Errorf("dnswire: record after OPT")
		}
		if off, err = skipName(wire, off); err != nil {
			return l, err
		}
		if off+10 > len(wire) {
			return l, ErrBufferTooSmall
		}
		end := off + 10 + int(binary.BigEndian.Uint16(wire[off+8:]))
		if end > len(wire) {
			return l, ErrBufferTooSmall
		}
		if Type(binary.BigEndian.Uint16(wire[off:])) != TypeOPT {
			l.TTLs = append(l.TTLs, off+4)
		} else {
			l.OPTRDLen = off + 8
			if err := l.findECS(wire[:end], off+10); err != nil {
				return l, err
			}
		}
		off = end
	}
	if off != len(wire) {
		return l, ErrTrailingGarbage
	}
	return l, nil
}

// findECS records the first client-subnet option among the OPT
// options of msg, which start at off and run to the end of msg.
func (l *Layout) findECS(msg []byte, off int) error {
	for off < len(msg) {
		if off+4 > len(msg) {
			return ErrBadRdata
		}
		end := off + 4 + int(binary.BigEndian.Uint16(msg[off+2:]))
		if end > len(msg) {
			return ErrBadRdata
		}
		if binary.BigEndian.Uint16(msg[off:]) == OptionCodeECS && l.ECS == 0 {
			if end-off < 8 { // family, source and scope prefix
				return ErrBadRdata
			}
			l.ECS, l.ECSEnd = off, end
		}
		off = end
	}
	return nil
}

// PatchECS rewrites the client-subnet option l locates so it echoes
// the query's option q (RFC 7871 §7.2.1): family, source prefix and
// address from q, scope kept. When the address length changes the
// option is spliced and OPTION-LENGTH and the OPT RDLENGTH fixed up;
// wire needs the capacity to grow, as a GetBuffer buffer has. It
// returns the patched message, or an error when q cannot be encoded.
func PatchECS(wire []byte, l *Layout, q *ECSOption) ([]byte, error) {
	echo := *q
	echo.ScopePrefix = wire[l.ECS+7]
	var ob [4 + 4 + 16]byte
	opt, err := echo.packOption(ob[:4])
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(opt, OptionCodeECS)
	binary.BigEndian.PutUint16(opt[2:], uint16(len(opt)-4))
	if delta := len(opt) - (l.ECSEnd - l.ECS); delta != 0 {
		n := len(wire) + delta
		if n > cap(wire) || n > MaxMessageSize {
			return nil, ErrBufferTooSmall
		}
		tail := wire[l.ECSEnd:]
		wire = wire[:n]
		copy(wire[l.ECSEnd+delta:], tail)
		rdlen := int(binary.BigEndian.Uint16(wire[l.OPTRDLen:])) + delta
		binary.BigEndian.PutUint16(wire[l.OPTRDLen:], uint16(rdlen))
	}
	copy(wire[l.ECS:], opt)
	return wire, nil
}

// AgeTTLs subtracts age seconds from each TTL field at the given
// offsets (Layout.TTLs), clamping at zero — the in-place
// equivalent of the decode-path TTL aging loop.
func AgeTTLs(wire []byte, offsets []int, age uint32) {
	if age == 0 {
		return
	}
	for _, off := range offsets {
		if off+4 > len(wire) {
			continue
		}
		ttl := binary.BigEndian.Uint32(wire[off:])
		if ttl > age {
			ttl -= age
		} else {
			ttl = 0
		}
		binary.BigEndian.PutUint32(wire[off:], ttl)
	}
}

// ClampTTLs caps each TTL field at the given offsets (Layout.TTLs) to at most max seconds — the in-place patch behind
// RFC 8767 serve-stale, where an expired cached answer goes out with
// its TTLs clamped to a short stale lifetime instead of the original
// (now meaningless) values. TTLs already at or below max are left
// alone, so short-lived records never gain lifetime from going stale.
func ClampTTLs(wire []byte, offsets []int, max uint32) {
	for _, off := range offsets {
		if off+4 > len(wire) {
			continue
		}
		if binary.BigEndian.Uint32(wire[off:]) > max {
			binary.BigEndian.PutUint32(wire[off:], max)
		}
	}
}

// PatchID overwrites the transaction ID of a packed message.
func PatchID(wire []byte, id uint16) {
	if len(wire) >= 2 {
		binary.BigEndian.PutUint16(wire, id)
	}
}

// PatchReplyBits rewrites the request-mirrored flag bits of a packed
// response: RD (copied from the query per RFC 1035 §4.1.1) and CD
// (echoed per RFC 4035 §3.2.2). QR, AA, RA, rcode and the rest are
// properties of the stored answer and are left untouched.
func PatchReplyBits(wire []byte, rd, cd bool) {
	if len(wire) < 4 {
		return
	}
	const (
		rdBit = byte(flagRD >> 8) // high flag byte
		cdBit = byte(flagCD)      // low flag byte
	)
	wire[2] &^= rdBit
	if rd {
		wire[2] |= rdBit
	}
	wire[3] &^= cdBit
	if cd {
		wire[3] |= cdBit
	}
}
