package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running dnsd.
type proc struct {
	name  string
	cmd   *exec.Cmd
	admin string
	done  chan struct{}
	log   *os.File
}

// startDnsd starts bin with args plus an admin listener, logging to
// dir/name.log.
func startDnsd(bin, dir, name string, args []string) (*proc, error) {
	adminPort, err := freePort()
	if err != nil {
		return nil, err
	}
	admin := fmt.Sprintf("127.0.0.1:%d", adminPort)
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-admin", admin)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The daemon dies with the benchmark even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, admin: admin, done: make(chan struct{}), log: log}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the daemon to drain, kills it if it has not exited within
// a few seconds, and waits until it has.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// freePort returns a port that is currently free for both UDP and TCP
// on the loopback address.
func freePort() (int, error) {
	for i := 0; i < 20; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		u, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
		l.Close()
		if err == nil {
			u.Close()
			return port, nil
		}
	}
	return 0, fmt.Errorf("no free loopback port")
}

func loopback(port int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(port))
}

// sample is one scrape of a daemon: its /metrics families (keyed by
// series, labels included), CPU time and memory high-water mark.
type sample struct {
	metrics map[string]float64
	cpu     time.Duration
	hwmKB   int64
}

func (p *proc) sample() (*sample, error) {
	s := &sample{metrics: map[string]float64{}}
	resp, err := http.Get("http://" + p.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", p.name, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", p.name, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s.metrics[line[:i]] = v
	}
	if s.cpu, err = procCPU(p.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if s.hwmKB, err = procHWM(p.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return s, nil
}

// delta returns after-before for one series (0 when absent).
func delta(before, after *sample, series string) float64 {
	return after.metrics[series] - before.metrics[series]
}

// deltaFamily sums after-before over every series of a family.
func deltaFamily(before, after *sample, family string) float64 {
	var d float64
	for k, v := range after.metrics {
		if k == family || strings.HasPrefix(k, family+"{") {
			d += v - before.metrics[k]
		}
	}
	return d
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime
	// are fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in kB.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// udpRcvbufErrors returns the kernel's UDP RcvbufErrors counter from
// /proc/net/snmp: datagrams dropped because a socket buffer was full.
func udpRcvbufErrors() (int64, error) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var header []string
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "Udp: ")
		if !ok {
			continue
		}
		if header == nil {
			header = strings.Fields(rest)
			continue
		}
		vals := strings.Fields(rest)
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(vals) {
				return strconv.ParseInt(vals[i], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no Udp RcvbufErrors in /proc/net/snmp")
}
