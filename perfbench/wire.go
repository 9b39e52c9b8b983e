package main

import (
	"bytes"
	"encoding/binary"
	"strings"
)

// The generator builds and checks DNS messages itself instead of
// going through the repository's dnswire package, so a defect in the
// code under test cannot also hide in the checker.

// Query shapes, sent in equal thirds: a plain query, one with an
// EDNS0 OPT record, and one whose OPT record carries an EDNS Client
// Subnet option for a /24.
const (
	shapePlain = iota
	shapeEDNS
	shapeECS
	numShapes
)

const (
	typeA   = 1
	typeOPT = 41
	optECS  = 8
	// ecsSource is the source prefix length every ECS query discloses.
	ecsSource = 24
	// ednsSize is the UDP payload size the EDNS queries advertise.
	ednsSize = 1232
)

// query is one generated question. subnet is the /24 network address
// an ECS query discloses; it is unused for the other shapes.
type query struct {
	name   string
	shape  uint8
	subnet uint32
}

// appendName appends a fully qualified, lower-case name in wire form.
func appendName(b []byte, name string) []byte {
	for name != "" && name != "." {
		i := strings.IndexByte(name, '.')
		if i < 0 {
			i = len(name)
		}
		b = append(b, byte(i))
		b = append(b, name[:i]...)
		if i == len(name) {
			break
		}
		name = name[i+1:]
	}
	return append(b, 0)
}

// appendQuery appends q as a recursion-desired A query with the given
// message ID.
func appendQuery(b []byte, id uint16, q *query) []byte {
	arcount := byte(0)
	if q.shape != shapePlain {
		arcount = 1
	}
	b = append(b, byte(id>>8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, arcount)
	b = appendName(b, q.name)
	b = append(b, 0, typeA, 0, 1)
	switch q.shape {
	case shapeEDNS:
		b = append(b, 0, 0, typeOPT, ednsSize>>8, ednsSize&0xff, 0, 0, 0, 0, 0, 0)
	case shapeECS:
		// OPT RR with one EDNS0_SUBNET option (RFC 7871 §6): family 1,
		// source /24, scope 0, and the three significant address bytes.
		b = append(b, 0, 0, typeOPT, ednsSize>>8, ednsSize&0xff, 0, 0, 0, 0, 0, 11,
			0, optECS, 0, 7, 0, 1, ecsSource, 0,
			byte(q.subnet>>24), byte(q.subnet>>16), byte(q.subnet>>8))
	}
	return b
}

// expectation is the answer a query must get: the A record of the PoP
// the routes file assigns, and for ECS queries the scope the C-DNS
// must echo (the matched route length).
type expectation struct {
	addr  [4]byte
	scope int
}

// Failure reasons. A failed operation carries exactly one.
const (
	reasonTimeout       = "timeout"
	reasonServfail      = "servfail"
	reasonRefused       = "refused"
	reasonRcode         = "other_rcode"
	reasonWrongQuestion = "wrong_question"
	reasonWrongAnswer   = "wrong_answer"
	reasonWrongScope    = "wrong_scope"
	reasonMalformed     = "malformed"
)

// wrongReasons are the failures that mean the program answered
// incorrectly, as opposed to not answering (timeout) or declining
// (SERVFAIL, REFUSED); any of them makes a run incorrect.
var wrongReasons = []string{reasonWrongQuestion, reasonWrongAnswer, reasonWrongScope, reasonMalformed, reasonRcode}

// checkResponse verifies resp against the query whose wire form is
// qwire and returns "" when it is correct, else the failure reason.
// The caller has already matched the message ID.
func checkResponse(resp, qwire []byte, shape uint8, want expectation) string {
	if len(resp) < 12 || resp[2]&0x80 == 0 {
		return reasonMalformed
	}
	qend := 12
	for qend < len(qwire) && qwire[qend] != 0 {
		qend += int(qwire[qend]) + 1
	}
	qend += 5 // root label, type, class
	if binary.BigEndian.Uint16(resp[4:]) != 1 || len(resp) < qend || !bytes.Equal(resp[12:qend], qwire[12:qend]) {
		return reasonWrongQuestion
	}
	switch resp[3] & 0x0f {
	case 0:
	case 2:
		return reasonServfail
	case 5:
		return reasonRefused
	default:
		return reasonRcode
	}
	an := int(binary.BigEndian.Uint16(resp[6:]))
	ns := int(binary.BigEndian.Uint16(resp[8:]))
	ar := int(binary.BigEndian.Uint16(resp[10:]))
	off := qend
	gotA := false
	scope := -1
	for i := 0; i < an+ns+ar; i++ {
		off = skipName(resp, off)
		if off < 0 || off+10 > len(resp) {
			return reasonMalformed
		}
		typ := binary.BigEndian.Uint16(resp[off:])
		rdlen := int(binary.BigEndian.Uint16(resp[off+8:]))
		rd := off + 10
		if rd+rdlen > len(resp) {
			return reasonMalformed
		}
		switch {
		case i < an && typ == typeA && rdlen == 4:
			if [4]byte(resp[rd:rd+4]) != want.addr {
				return reasonWrongAnswer
			}
			gotA = true
		case i >= an+ns && typ == typeOPT:
			s, ok := ecsScope(resp[rd : rd+rdlen])
			if !ok {
				return reasonMalformed
			}
			scope = s
		}
		off = rd + rdlen
	}
	if !gotA {
		return reasonWrongAnswer
	}
	if shape == shapeECS && scope != want.scope {
		return reasonWrongScope
	}
	return ""
}

// ecsScope walks an OPT record's options and returns the scope prefix
// of its ECS option, or -1 when there is none.
func ecsScope(opts []byte) (int, bool) {
	for len(opts) >= 4 {
		code := binary.BigEndian.Uint16(opts)
		n := int(binary.BigEndian.Uint16(opts[2:]))
		if 4+n > len(opts) {
			return 0, false
		}
		if code == optECS {
			if n < 4 {
				return 0, false
			}
			return int(opts[7]), true
		}
		opts = opts[4+n:]
	}
	return -1, len(opts) == 0
}

// skipName returns the offset just past the (possibly compressed)
// name starting at off, or -1 when it runs off the message.
func skipName(m []byte, off int) int {
	for off < len(m) {
		l := int(m[off])
		switch {
		case l == 0:
			return off + 1
		case l&0xc0 == 0xc0:
			if off+2 > len(m) {
				return -1
			}
			return off + 2
		default:
			off += l + 1
		}
	}
	return -1
}

// questionName decodes the first question name of a wire query (no
// compression, as every query here is built uncompressed).
func questionName(m []byte) string {
	var b strings.Builder
	off := 12
	for off < len(m) {
		l := int(m[off])
		if l == 0 || l&0xc0 != 0 || off+1+l > len(m) {
			break
		}
		b.Write(m[off+1 : off+1+l])
		b.WriteByte('.')
		off += l + 1
	}
	return strings.ToLower(b.String())
}
