// Command perfbench is the repository benchmark. It runs one workload
// against the commit it was built from and prints every metric by name
// with its unit; the last line of its output is one JSON object with
// the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through run.sh, which builds dnsd
// and this program first:
//
//	bash perfbench/run.sh --workload ldns-hit --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	ldns-hit    L-DNS → C-DNS chain on loopback, hot set served from the L-DNS cache
//	chain-miss  the same chain, every query a never-seen name routed by the C-DNS
//	sim-fleet   the virtual-time testbed: X8 (ring) and X9 (mesh)
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
// prints its per-layer metrics. README.md says what each one means and
// which end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads is every workload, with the fixed open-loop rate and the
// window of the socket ones. The window, 8 queries in flight, is what
// dnsd's default UDP ingress queue (4 batches per worker, a worker per
// CPU) holds on a 2-CPU host, so the measured phases never overflow
// it; the traced run's overload probe goes past it. The rates are
// about a quarter of the closed-loop goodput chain-miss reaches at
// that window on a 2-CPU host, and a fifth of ldns-hit's, whose
// latency tail moved less at the lower rate; they are never derived
// per run.
var workloads = map[string]*socketWorkload{
	"ldns-hit":   {name: "ldns-hit", hit: true, rate: 10000, window: 8},
	"chain-miss": {name: "chain-miss", rate: 2500, window: 8},
	"sim-fleet":  nil,
}

// Per-layer metrics whose layer does not run on a kind of workload;
// the traced run reports them as 0.
var (
	// dnsd's C-DNS registers no cache servers, so its ring is empty
	// and no mesh runs; the testbed is not started.
	idleOnSockets = []string{"ring.owners_ns", "ring.spills_per_req", "ring.load_spread", "mesh.steer_ns",
		"mesh.sibling_share", "sim.x8_s", "sim.x9_s"}
	// sim-fleet has no sockets, no daemons and no wrapped chain.
	idleOnSim = []string{"loadgen.late_p99_ms", "ingress.pkts_per_batch", "ingress.shed_per_10k",
		"kernel.rcvbuf_errors", "ingress.outside_chain_us", "metrics.self_us", "cache.hit_self_us",
		"cache.miss_self_us", "cache.evictions_per_q", "stub.self_us", "dnsclient.exchange_us",
		"dnsclient.exchanges_per_q", "dnsclient.timeouts", "router.self_us", "router.subnet_route_ratio",
		"lpm.lookup_ns", "ldns.cpu_us_per_q", "cdns.cpu_us_per_q", "ldns.serve_mean_us",
		"cdns.serve_mean_us", "trace.overhead_pct", "trace.unattributed_us"}
)

// run accumulates one invocation's results.
type run struct {
	metrics   map[string]float64
	attempted int
	fails     map[string]int
	info      map[string]any
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// add counts a generator phase's queries and failures.
func (r *run) add(p *phaseResult) {
	r.attempted += p.attempted
	for k, v := range p.fails {
		r.fails[k] += v
	}
}

// attempt counts one checked operation, failed when reason is not "".
func (r *run) attempt(reason string) { r.attemptN(1, reason) }

func (r *run) attemptN(n int, reason string) {
	r.attempted += n
	if reason != "" {
		r.fails[reason] += n
	}
}

func (r *run) failed() int {
	n := 0
	for _, c := range r.fails {
		n += c
	}
	return n
}

// correct is false when any answer was wrong; queries that timed out
// or were declined (SERVFAIL, REFUSED) are failures but not wrong.
func (r *run) correct() bool {
	for _, k := range append(wrongReasons, "reference_mismatch", "bounded_spread_above_plain", "mesh_share_not_above_vertical") {
		if r.fails[k] > 0 {
			return false
		}
	}
	return r.attempted > 0
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: ldns-hit, chain-miss or sim-fleet")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "seconds to measure for")
		trace    = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		dnsd     = flag.String("dnsd", "", "dnsd binary built from the commit under test")
		out      = flag.String("out", ".bench_build", "directory for work files, traces and result files")
	)
	flag.Parse()
	// The open-loop senders sleep in the kernel on locked threads; one
	// spare P per sender keeps a waking sender (and, in the traced run,
	// the in-process servers) from waiting for a P.
	runtime.GOMAXPROCS(runtime.NumCPU() + genSockets)
	if err := mainErr(*workload, *seed, time.Duration(*seconds)*time.Second, *trace, *dnsd, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds time.Duration, trace int, dnsd, out string) error {
	w, known := workloads[workload]
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	specs := bf.EndToEnd
	if trace == 1 {
		specs = bf.PerLayer
	}
	workDir := filepath.Join(out, "work", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	traceDir := filepath.Join(out, "traces")
	resultDir := filepath.Join(out, "results")
	for _, d := range []string{workDir, traceDir, resultDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(workDir)

	r := &run{metrics: map[string]float64{}, fails: map[string]int{}, info: map[string]any{}}
	start := time.Now()
	if w == nil {
		if trace == 0 {
			err = measureSim(r, seed, seconds)
		} else {
			err = tracedSim(r, seed, seconds)
		}
		r.info["x8_ues"], r.info["x9_requests_per_tick"] = simX8UEs, simX9Requests
	} else {
		if dnsd == "" {
			return errors.New("-dnsd is required for socket workloads")
		}
		var env *chainEnv
		if env, err = newChainEnv(dnsd, workDir, seed); err != nil {
			return err
		}
		if trace == 0 {
			err = w.measure(r, env, seed, seconds)
		} else {
			err = w.traced(r, env, seed, seconds, traceDir)
		}
		r.info["open_loop_rate_qps"], r.info["closed_loop_window"] = w.rate, w.window
		r.info["route_rows"] = len(env.topo.rows)
		r.info["generator_sockets"] = genSockets
		r.info["answer_timeout_ms"] = genTimeout.Milliseconds()
	}
	if err != nil {
		return err
	}
	if trace == 1 {
		idle := idleOnSockets
		if w == nil {
			idle = idleOnSim
		}
		for _, m := range idle {
			if _, set := r.metrics[m]; set {
				return fmt.Errorf("metric %s is listed idle but was measured", m)
			}
			r.set(m, 0)
		}
	}
	r.info["run_seconds"] = time.Since(start).Seconds()
	return report(r, workload, seed, trace, specs, resultDir)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines, writes the full result file
// and prints the required JSON object as the last line.
func report(r *run, workload string, seed int64, trace int, specs []metricSpec, dir string) error {
	metrics := map[string]metricValue{}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	host := hostFingerprint()
	fmt.Printf("# workload %s  seed %d  trace %d\n", workload, seed, trace)
	fmt.Printf("# host %s\n", flatten(host))
	fmt.Printf("# params %s\n", flatten(r.info))
	for _, s := range specs {
		fmt.Printf("%-28s %14.6g %s\n", s.Name, metrics[s.Name].Value, s.Unit)
	}
	reasons := make([]string, 0, len(r.fails))
	for k := range r.fails {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	fmt.Printf("attempted %d  failed %d", r.attempted, r.failed())
	for _, k := range reasons {
		fmt.Printf("  %s=%d", k, r.fails[k])
	}
	fmt.Println()

	full := map[string]any{
		"workload": workload, "seed": seed, "trace": trace, "host": host, "params": r.info,
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed(), "failures": r.fails,
		"metrics": metrics,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d-%d.json", workload, trace, seed, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed(), "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func flatten(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v ", k, m[k])
	}
	return strings.TrimSpace(b.String())
}

// hostFingerprint records what the numbers depend on.
func hostFingerprint() map[string]any {
	h := map[string]any{
		"nproc": runtime.NumCPU(),
		// dnsd runs with Go's default GOMAXPROCS; this process adds a
		// spare P per generator socket.
		"gomaxprocs_dnsd":      runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
