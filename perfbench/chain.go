package main

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"time"
)

// chainEnv holds what every L-DNS → C-DNS pair of one run shares: the
// dnsd binary, the work directory and the seeded route table.
type chainEnv struct {
	bin, dir   string
	topo       *topology
	routesPath string
	zonePath   string
}

func newChainEnv(bin, dir string, seed int64) (*chainEnv, error) {
	e := &chainEnv{
		bin:        bin,
		dir:        dir,
		topo:       newTopology(seed, routeRows),
		routesPath: filepath.Join(dir, "routes.txt"),
		zonePath:   filepath.Join(dir, "mec.zone"),
	}
	if err := e.topo.writeRoutes(e.routesPath); err != nil {
		return nil, err
	}
	if err := writeZone(e.zonePath); err != nil {
		return nil, err
	}
	return e, nil
}

// routeRows is the approximate size of the C-DNS route table.
const routeRows = 100_000

// chainPair is a running L-DNS (-stub to the C-DNS, -zone) and C-DNS
// (-cdn-domain -routes -pop), otherwise on dnsd's defaults: Metrics
// plugin, telemetry hub and admin endpoint on, default UDP queue,
// batch size and socket buffers.
type chainPair struct {
	cdns, ldns *proc
	addr       netip.AddrPort // the L-DNS, where UE queries go
}

func (e *chainEnv) start() (*chainPair, error) {
	cport, err := freePort()
	if err != nil {
		return nil, err
	}
	cdnsArgs := append([]string{"-listen", loopback(cport).String(),
		"-cdn-domain", cdnDomain, "-routes", e.routesPath}, popFlags()...)
	cdns, err := startDnsd(e.bin, e.dir, "cdns", cdnsArgs)
	if err != nil {
		return nil, err
	}
	lport, err := freePort()
	if err != nil {
		cdns.stop()
		return nil, err
	}
	ldns, err := startDnsd(e.bin, e.dir, "ldns", []string{"-listen", loopback(lport).String(),
		"-stub", cdnDomain + "=" + loopback(cport).String(),
		"-zone", mecZone + "=" + e.zonePath})
	if err != nil {
		cdns.stop()
		return nil, err
	}
	return &chainPair{cdns: cdns, ldns: ldns, addr: loopback(lport)}, nil
}

func (c *chainPair) stop() {
	c.ldns.stop()
	c.cdns.stop()
}

// waitReady probes the L-DNS until a query resolves correctly through
// the whole chain.
func waitReady(addr netip.AddrPort, topo *topology, alive func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	var last error
	for i := 0; time.Now().Before(deadline); i++ {
		if err := alive(); err != nil {
			return err
		}
		q := query{name: fmt.Sprintf("ready-%d.%s", i, cdnDomain), shape: shapePlain}
		if last = exchangeOnce(addr, topo, q, 50*time.Millisecond); last == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("chain not ready after 30s: %v", last)
}

func (c *chainPair) alive() error {
	for _, p := range []*proc{c.cdns, c.ldns} {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up; see %s.log", p.name, p.name)
		}
	}
	return nil
}

// chainSample scrapes both daemons and the kernel's UDP counters.
type chainSample struct {
	ldns, cdns *sample
	rcvbuf     int64
}

func (c *chainPair) sample() (*chainSample, error) {
	l, err := c.ldns.sample()
	if err != nil {
		return nil, err
	}
	cd, err := c.cdns.sample()
	if err != nil {
		return nil, err
	}
	rb, err := udpRcvbufErrors()
	if err != nil {
		return nil, err
	}
	return &chainSample{ldns: l, cdns: cd, rcvbuf: rb}, nil
}
