package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// genTimeout is how long the generator waits for an answer before it
// counts the query as failed. It is far above any answer time on
// loopback, so only a query the daemons dropped times out; slow
// answers show in the latency percentiles instead. The generator never
// retries.
const genTimeout = time.Second

// phaseSpec describes one measured phase. A phase is open loop at rate
// queries per second when rate > 0, and closed loop otherwise, each
// socket keeping window/len(sockets) queries in flight. The open loop
// never has more than window queries in flight either: a query due
// while the window is full leaves when an answer frees a place. An
// open-loop query's latency counts from when it fell due, so the wait
// a stall imposes on the queries after it is counted.
type phaseSpec struct {
	window int
	rate   float64
	// timeout, when positive, replaces genTimeout.
	timeout time.Duration
	dur     time.Duration
	// limit, when positive, caps the queries each socket sends.
	limit int
}

func (p phaseSpec) wait() time.Duration {
	if p.timeout > 0 {
		return p.timeout
	}
	return genTimeout
}

// phaseResult is what the generator saw in one phase.
type phaseResult struct {
	dur       time.Duration
	attempted int
	ok        int
	okInTime  int // correct answers that arrived before the phase ended
	fails     map[string]int
	stray     int // answers with no query in flight (late or duplicate)
	// latUs holds every query's latency in microseconds, from its due
	// time (open loop) or send time (closed loop); failures are +Inf.
	latUs []float64
	// lateUs is how late each open-loop send left after its due time.
	lateUs []float64
}

func (r *phaseResult) merge(o *phaseResult) {
	r.dur = max(r.dur, o.dur)
	r.attempted += o.attempted
	r.ok += o.ok
	r.okInTime += o.okInTime
	r.stray += o.stray
	for k, v := range o.fails {
		r.fails[k] += v
	}
	r.latUs = append(r.latUs, o.latUs...)
	r.lateUs = append(r.lateUs, o.lateUs...)
}

// goodput is correct answers per second.
func (r *phaseResult) goodput() float64 { return float64(r.okInTime) / r.dur.Seconds() }

// latency returns the p-th percentile latency in ms. A percentile that
// falls on a failed query reads as the timeout.
func (r *phaseResult) latency(p float64) float64 {
	return min(percentile(r.latUs, p)/1000, float64(genTimeout)/1e6)
}

// tracer hooks let the traced run tie generator round trips to the
// spans recorded inside the servers.
type genHooks struct {
	// sent is called before a query leaves socket sock with message
	// ID id; qid numbers queries across the whole phase.
	sent func(sock int, id uint16, qid uint32)
	// answered is called for every correct answer with its round trip.
	answered func(qid uint32, rtt time.Duration)
}

// generator is the load generator. It owns at most one UDP socket per
// CPU, and drives them from at most as many goroutines (see run).
type generator struct {
	conns   []*net.UDPConn
	streams []stream
	topo    *topology
	hooks   *genHooks
}

// newGenerator connects nsock sockets to target.
func newGenerator(target netip.AddrPort, nsock int, topo *topology, streams func(sock int) stream) (*generator, error) {
	g := &generator{topo: topo}
	for i := 0; i < nsock; i++ {
		c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(target))
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dialing %v: %w", target, err)
		}
		g.conns = append(g.conns, c)
		g.streams = append(g.streams, streams(i))
		if err := enableRxTimestamps(c); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

// enableRxTimestamps asks the kernel to stamp every received datagram.
func enableRxTimestamps(c *net.UDPConn) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	return serr
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.Close()
	}
}

// localPorts returns each socket's local port, in socket order.
func (g *generator) localPorts() []uint16 {
	var ports []uint16
	for _, c := range g.conns {
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).AddrPort().Port())
	}
	return ports
}

// run drives one phase on every socket and merges the results. The
// closed loop runs one goroutine per socket; the open loop paces every
// socket from one goroutine.
func (g *generator) run(spec phaseSpec) (*phaseResult, error) {
	t0 := time.Now()
	states := make([]*sockState, len(g.conns))
	for i := range states {
		states[i] = &sockState{
			g: g, sock: i, spec: spec, t0: t0,
			res:    &phaseResult{dur: spec.dur, fails: map[string]int{}},
			slots:  make([]slot, 1<<16),
			nextID: uint16(i * 7919),
			wbuf:   make([]byte, 0, 512),
			qbuf:   make([]byte, 0, 512),
		}
	}
	var err error
	window := max(1, spec.window/len(g.conns))
	if spec.rate == 0 {
		errs := make([]error, len(g.conns))
		var wg sync.WaitGroup
		for i, s := range states {
			wg.Add(1)
			go func(i int, s *sockState) {
				defer wg.Done()
				errs[i] = s.closedLoop(window)
			}(i, s)
		}
		wg.Wait()
		err = errors.Join(errs...)
	} else {
		err = openLoop(states, window)
	}
	if err != nil {
		return nil, err
	}
	total := &phaseResult{dur: spec.dur, fails: map[string]int{}}
	for _, s := range states {
		total.merge(s.res)
	}
	return total, nil
}

// slot is one query in flight, indexed by message ID.
type slot struct {
	active bool
	due    time.Duration // since phase start
	qid    uint32
	q      query
}

// sockState is one socket's side of a phase.
type sockState struct {
	g        *generator
	sock     int
	spec     phaseSpec
	t0       time.Time
	res      *phaseResult
	slots    []slot
	fifo     []uint16 // IDs in send order, for timeouts
	inflight int
	sent     int
	nextID   uint16
	wbuf     []byte
	qbuf     []byte
}

func (s *sockState) sending(now time.Duration) bool {
	return now < s.spec.dur && (s.spec.limit == 0 || s.sent < s.spec.limit)
}

// finish records a query's outcome at phase time at.
func (s *sockState) finish(sl *slot, reason string, at time.Duration) {
	sl.active = false
	s.inflight--
	if reason == "" {
		s.res.ok++
		if at < s.spec.dur {
			s.res.okInTime++
		}
		s.res.latUs = append(s.res.latUs, float64(at-sl.due)/1e3)
		return
	}
	s.res.fails[reason]++
	s.res.latUs = append(s.res.latUs, inf)
}

func (s *sockState) send(due time.Duration) error {
	for s.slots[s.nextID].active {
		s.nextID++
	}
	id := s.nextID
	s.nextID++
	sl := &s.slots[id]
	s.g.streams[s.sock].next(&sl.q)
	sl.active, sl.due = true, due
	sl.qid = uint32(s.sent*len(s.g.conns) + s.sock)
	s.sent++
	if s.g.hooks != nil {
		s.g.hooks.sent(s.sock, id, sl.qid)
	}
	s.wbuf = appendQuery(s.wbuf[:0], id, &sl.q)
	s.inflight++
	s.res.attempted++
	s.fifo = append(s.fifo, id)
	if _, err := s.g.conns[s.sock].Write(s.wbuf); err != nil {
		return fmt.Errorf("sending query: %w", err)
	}
	return nil
}

// expire fails every query that has waited the phase's timeout.
func (s *sockState) expire(now time.Duration) {
	for len(s.fifo) > 0 {
		sl := &s.slots[s.fifo[0]]
		if sl.active && now-sl.due < s.spec.wait() {
			return
		}
		if sl.active {
			s.finish(sl, reasonTimeout, now)
		}
		s.fifo = s.fifo[1:]
	}
}

// receive checks one answer that arrived at phase time at.
func (s *sockState) receive(msg []byte, at time.Duration) {
	if len(msg) < 12 {
		s.res.stray++
		return
	}
	id := uint16(msg[0])<<8 | uint16(msg[1])
	sl := &s.slots[id]
	if !sl.active {
		s.res.stray++
		return
	}
	s.qbuf = appendQuery(s.qbuf[:0], id, &sl.q)
	reason := checkResponse(msg, s.qbuf, sl.q.shape, s.g.topo.expect(&sl.q))
	if reason == "" && s.g.hooks != nil {
		s.g.hooks.answered(sl.qid, at-sl.due)
	}
	s.finish(sl, reason, at)
}

// closedLoop keeps window queries in flight, sending the next as each
// answer arrives; the read deadline wakes it for timeouts.
func (s *sockState) closedLoop(window int) error {
	conn := s.g.conns[s.sock]
	rbuf := make([]byte, 4096)
	var deadline time.Duration = -1
	for {
		now := time.Since(s.t0)
		s.expire(now)
		sending := s.sending(now)
		if !sending && s.inflight == 0 {
			return nil
		}
		for sending && s.inflight < window && s.sending(now) {
			if err := s.send(now); err != nil {
				return err
			}
		}
		dl := s.spec.dur
		if !sending {
			dl = now + s.spec.wait()
		}
		if len(s.fifo) > 0 {
			dl = min(dl, s.slots[s.fifo[0]].due+s.spec.wait())
		}
		if dl != deadline {
			if err := conn.SetReadDeadline(s.t0.Add(dl)); err != nil {
				return err
			}
			deadline = dl
		}
		n, err := conn.Read(rbuf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			return fmt.Errorf("reading answers: %w", err)
		}
		s.receive(rbuf[:n], time.Since(s.t0))
	}
}

// openLoop sends each query at its due time, round-robin over the
// sockets, holding it back only while its socket has window queries in
// flight. Go's timers wake a parked goroutine only to the millisecond,
// which would make the generator itself late, so the pacing sleeps in
// the kernel on a locked thread with 1µs timer slack, and answers are
// timed by their kernel receive timestamps (SO_TIMESTAMPNS) rather
// than by when this loop gets round to reading them. One thread paces
// every socket, so the generator wakes no more often than the offered
// rate.
func openLoop(states []*sockState, window int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1000, 0)
	rcs := make([]syscall.RawConn, len(states))
	for i, s := range states {
		conn := s.g.conns[s.sock]
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return err
		}
		rc, err := conn.SyscallConn()
		if err != nil {
			return err
		}
		rcs[i] = rc
	}
	spec, t0 := states[0].spec, states[0].t0
	interval := time.Duration(float64(time.Second) / spec.rate)
	var nextDue time.Duration
	next := 0 // socket the next query leaves on
	rbuf := make([]byte, 4096)
	oob := make([]byte, 128)
	t0ns := t0.UnixNano()
	for {
		now := time.Since(t0)
		for nextDue <= now && states[next].sending(now) && states[next].inflight < window {
			s := states[next]
			s.res.lateUs = append(s.res.lateUs, float64(now-nextDue)/1e3)
			if err := s.send(nextDue); err != nil {
				return err
			}
			nextDue += interval
			next = (next + 1) % len(states)
		}
		busy := false
		for i, s := range states {
			// Drain every answer already queued on the socket.
			for {
				var n, oobn int
				var rerr error
				if err := rcs[i].Read(func(fd uintptr) bool {
					n, oobn, _, _, rerr = syscall.Recvmsg(int(fd), rbuf, oob, syscall.MSG_DONTWAIT)
					return true
				}); err != nil {
					return err
				}
				if rerr == syscall.EAGAIN || rerr == syscall.EINTR {
					break
				}
				if rerr != nil {
					return fmt.Errorf("reading answers: %w", rerr)
				}
				at := time.Since(t0)
				if ts, ok := rxTimestamp(oob[:oobn]); ok {
					at = time.Duration(ts - t0ns)
				}
				s.receive(rbuf[:n], at)
			}
			s.expire(time.Since(t0))
			busy = busy || s.inflight > 0
		}
		now = time.Since(t0)
		sending := states[next].sending(now)
		if !sending && !busy {
			return nil
		}
		wake := now + time.Millisecond
		if sending && states[next].inflight >= window {
			// Poll for the answer that frees a place.
			wake = now + 10*time.Microsecond
		} else if sending {
			wake = min(wake, nextDue)
		}
		if d := wake - time.Since(t0); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil)
		}
	}
}

// rxTimestamp returns the kernel receive time (Unix ns) carried in a
// SCM_TIMESTAMPNS control message.
func rxTimestamp(oob []byte) (int64, bool) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return 0, false
	}
	for _, m := range msgs {
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS && len(m.Data) >= 16 {
			sec := int64(binary.NativeEndian.Uint64(m.Data))
			nsec := int64(binary.NativeEndian.Uint64(m.Data[8:]))
			return sec*1e9 + nsec, true
		}
	}
	return 0, false
}

// exchangeOnce sends one query from a fresh socket and checks the
// answer; it is the readiness probe.
func exchangeOnce(target netip.AddrPort, topo *topology, q query, timeout time.Duration) error {
	c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(target))
	if err != nil {
		return err
	}
	defer c.Close()
	wire := appendQuery(nil, 0x5151, &q)
	if _, err := c.Write(wire); err != nil {
		return err
	}
	if err := c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		if err != nil {
			return err
		}
		if n >= 2 && buf[0] == 0x51 && buf[1] == 0x51 {
			if reason := checkResponse(buf[:n], wire, q.shape, topo.expect(&q)); reason != "" {
				return fmt.Errorf("probe answer: %s", reason)
			}
			return nil
		}
	}
}
