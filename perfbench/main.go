// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload — three simulation workloads driven through the
// library's public API and one HTTP workload against the agilepmd
// daemon — checks every result against a reference, and prints its
// metrics, ending with one JSON line:
//
//	perfbench --workload drain-burst --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 the run repeats its untraced pass, then records spans
// around every call into the program and reports per-layer metrics.
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them; README.md says what each means per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not exercise reads 0.
var perLayer = []metricSpec{
	{"setup.fleet_ms", "ms"},
	{"setup.parse_ms", "ms"},
	{"setup.prototype_ms", "ms"},
	{"setup.fork_ms", "ms"},
	{"svc.ready_ms", "ms"},
	{"run.session_s", "s"},
	{"run.chunk_ms_p50", "ms"},
	{"run.chunk_ms_max", "ms"},
	{"run.us_per_eval", "us"},
	{"cluster.eval_ticks", "count"},
	{"cluster.evals_per_sim_min", "1/min"},
	{"cluster.host_evals", "count"},
	{"cluster.skip_frac", "frac"},
	{"core.control_steps", "count"},
	{"core.sleeps", "count"},
	{"core.wakes", "count"},
	{"core.fault_reactions", "count"},
	{"migrate.started", "count"},
	{"migrate.completed", "count"},
	{"core.move_rejects", "count"},
	{"core.rejects_per_start", "ratio"},
	{"events.logged", "count"},
	{"result.fold_ms", "ms"},
	{"telemetry.summarize_ms", "ms"},
	{"report.render_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"lat_p50_ms.light", "ms"},
	{"lat_tail_ms.light", "ms"},
	{"lat_p50_ms.heavy", "ms"},
	{"lat_tail_ms.heavy", "ms"},
	{"goodput_rps.heavy", "1/s"},
	{"svc.hit_ms_p50", "ms"},
	{"svc.hit_ms_tail", "ms"},
	{"svc.fork_ms_p50", "ms"},
	{"svc.cold_ms_p50", "ms"},
	{"svc.outside_run_ms_p50", "ms"},
	{"jobs.run_ms_mean", "ms"},
	{"jobs.handler_ms_mean", "ms"},
	{"jobs.rejected", "count"},
	{"rescache.hit_frac", "frac"},
	{"rescache.evictions", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"trace.overhead_frac", "frac"},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	refs    refs
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	failures          []string
	sizes             map[string]int
	// human lines print before the JSON: the workload-specific figures
	// the generic end-to-end metrics carry, under their own names.
	human  []string
	e2e    map[string]float64
	layers map[string]float64
	spans  []span
	// digests are the per-cell digests, for -record.
	digests refs
}

func newOutcome(sizes map[string]int) *outcome {
	return &outcome{sizes: sizes, layers: map[string]float64{}}
}

// fail counts a failed operation and keeps its first messages.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// errorRate is failed operations over attempted ones.
func (o *outcome) errorRate() float64 {
	return float64(o.failed) / float64(max(o.attempted, 1))
}

type workload interface {
	run(cfg config) (*outcome, error)
}

var workloads = map[string]workload{
	"drain-burst":  drainBurst,
	"ops-day":      opsDay,
	"steady-fleet": steadyFleet,
	"service-mix":  serviceMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: drain-burst, ops-day, steady-fleet, service-mix")
	seed := fs.Uint64("seed", 1, "input seed (1 is the default reference seed, 2 the held-out one)")
	seconds := fs.Int("seconds", 10, "how long the run phase measures")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	record := fs.Bool("record", false, "store this run's digests as the references for its seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seed > 0, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	r, err := loadRefs()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, refs: r}
	if *record {
		cfg.refs = refs{} // record what the program produces now
	}
	calib := [2]float64{calibrate()}
	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	calib[1] = calibrate()
	meta := newMeta(*name, *seed, *seconds, cfg.trace, o.sizes, calib)
	if err := emit(stdout, stderr, meta, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *record {
		if o.failed > 0 {
			fmt.Fprintf(stderr, "perfbench: not recording references from a run with failures\n")
			return 1
		}
		if err := r.save(o.digests); err != nil {
			fmt.Fprintf(stderr, "perfbench: saving references: %v\n", err)
			return 1
		}
	}
	return 0
}

// emit prints the human-readable lines, exports spans of a traced
// run, and ends with the JSON result line.
func emit(stdout, stderr io.Writer, meta runMeta, o *outcome) error {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "meta %s\n", metaJSON)
	for _, l := range o.human {
		fmt.Fprintln(stdout, l)
	}
	errRate := o.errorRate()
	fmt.Fprintf(stdout, "error_rate         %.4f  (%d of %d operations failed)\n", errRate, o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", f)
	}
	if o.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if meta.Traced {
		for _, m := range perLayer {
			metrics[m.name] = metric{o.layers[m.name], m.unit}
		}
		name := fmt.Sprintf("%s-seed%d-%d.jsonl", meta.Workload, meta.Seed, time.Now().UnixNano())
		path, err := export(spanDir, name, meta, o.spans)
		if err != nil {
			return fmt.Errorf("exporting spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans              %d written to %s\n", len(o.spans), filepath.ToSlash(path))
		names := make([]string, 0, len(o.layers))
		for k := range o.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stdout, "layer %-26s %.6g\n", k, o.layers[k])
		}
	} else {
		o.e2e["ok_frac"] = 1 - errRate
		for _, m := range endToEnd {
			v, ok := o.e2e[m.name]
			if !ok {
				return fmt.Errorf("workload did not measure %s", m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
