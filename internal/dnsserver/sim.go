package dnsserver

import (
	"context"
	"net/netip"
	"time"

	"github.com/meccdn/meccdn/internal/dnswire"
	"github.com/meccdn/meccdn/internal/simnet"
)

// Attach installs handler h as the DNS service of a simnet node.
// Every delivered datagram is parsed as a DNS message, resolved
// through the plugin chain (which may itself issue nested upstream
// exchanges in virtual time), and answered after a processing delay
// drawn from proc (nil means zero processing time).
//
// The server is modelled as a single-server queue: each query
// occupies the processor for its drawn processing time, and arrivals
// during that window wait their turn. Under light load the queueing
// delay is zero; under an ingress flood (the X5 experiment) response
// latency inflates, which is exactly why the paper's orchestrator
// monitors ingress and sheds to the provider L-DNS.
func Attach(node *simnet.Node, h Handler, proc simnet.Sampler) {
	var busyUntil time.Duration
	node.SetHandler(simnet.HandlerFunc(func(ctx *simnet.Ctx, dg simnet.Datagram) {
		msg := new(dnswire.Message)
		if err := msg.Unpack(dg.Payload); err != nil {
			return // not DNS; drop
		}
		req := &Request{
			Msg:       msg,
			Client:    netip.AddrPortFrom(dg.Client(), 0),
			Transport: "sim",
		}
		var out wireCapture
		ResolveTo(context.Background(), h, &out, req)
		if out.wire == nil {
			return // the response did not pack
		}
		var procTime time.Duration
		if proc != nil {
			procTime = proc.Sample(ctx.Network().Rand())
		}
		now := ctx.Now()
		start := now
		if busyUntil > start {
			start = busyUntil // wait behind queued work
		}
		busyUntil = start + procTime
		ctx.Reply(out.wire, busyUntil-now)
	}))
}

// wireCapture is the ResponseWriter Attach resolves into: it keeps the
// response packed, so a cache hit arrives as the patched stored image
// rather than being decoded and packed again. Like the socket writers
// it passes only the first response through.
type wireCapture struct {
	wire  []byte
	wrote bool
}

// Written implements responseTracker.
func (c *wireCapture) Written() bool { return c.wrote }

// WireSize implements WireWriter: simnet datagrams carry any message.
func (c *wireCapture) WireSize() int { return dnswire.MaxMessageSize }

// WriteWire implements WireWriter.
func (c *wireCapture) WriteWire(wire []byte) error {
	if !c.wrote {
		c.wire, c.wrote = append([]byte(nil), wire...), true
	}
	return nil
}

// WriteMsg implements ResponseWriter.
func (c *wireCapture) WriteMsg(m *dnswire.Message) error {
	if c.wrote {
		return nil
	}
	c.wrote = true
	var err error
	c.wire, err = m.Pack()
	return err
}
