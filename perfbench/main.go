// Command perfbench is xpscalar's end-to-end benchmark. It runs one
// workload of the paper's pipeline — Table 4 exploration, Table 5 matrix,
// or jobs served by cmd/xpserved — for a fixed time, checks every output,
// and prints its metrics as one JSON object on the last line of stdout.
//
// Usage (from the repository root; run.sh builds this binary and
// xpserved first):
//
//	bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"xpscalar/internal/session"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) (*report, error){
	"explore-cold": func(ctx context.Context, e *env) (*report, error) { return runExplore(ctx, e, tierNone) },
	"fleet-warm":   func(ctx context.Context, e *env) (*report, error) { return runExplore(ctx, e, tierRemote) },
	"serve-mixed":  runServe,
}

// env is one benchmark run's settings and scratch space.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	p       params   // the explore workloads' pipeline size
	serve   params   // the size of one serve-mixed job
	golden  []golden // the recorded seed slots
	bin     string   // directory holding the xpserved binary
	tmp     string   // this run's private scratch directory
}

// slot is the seed slot i places after the run's own: explore runs start
// at slot seed mod len(golden).
func (e *env) slot(i int) golden {
	k := int64(len(e.golden))
	return e.golden[int((((e.seed%k)+k)%k+int64(i))%k)]
}

// report is a run's result: operation counts, output-check failures and
// metrics.
type report struct {
	attempted, failed int64
	mismatches        []string
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{value, unit}
}

func (r *report) mismatch(format string, a ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, a...))
}

func main() {
	if code, ok := subcommand(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(exitCode(benchMain(os.Args[1:])))
}

// subcommand runs the helper modes this binary re-executes itself in
// (and golden.json's recorder), reporting whether args named one.
func subcommand(args []string) (code int, ok bool) {
	if len(args) == 0 {
		return 0, false
	}
	switch args[0] {
	case "fill":
		return exitCode(fillMain(args[1:])), true
	case "session":
		// The cold set-up probe: a process that builds a memory-only
		// session and exits.
		session.New(session.Options{}).Close()
		return 0, true
	case "record":
		return exitCode(recordMain(args[1:])), true
	}
	return 0, false
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: explore-cold, fleet-warm or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics from an untraced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Scratch lives inside the checkout, fresh per run and removed on
	// every exit path; nothing from an earlier run is read.
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o777); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), *name+"-")
	if err != nil {
		return err
	}
	if tmp, err = filepath.Abs(tmp); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		p: benchParams, serve: serveParams, golden: g.Seeds, bin: filepath.Dir(self), tmp: tmp}
	rep, err := run(ctx, e)
	if err != nil {
		return err
	}
	host, _ := json.Marshal(hostFingerprint())
	fmt.Printf("{\"host\": %s}\n", host)
	for _, m := range rep.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", m)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.mismatches) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if len(rep.mismatches) > 0 {
		return errors.New("output checks failed")
	}
	return nil
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH}
}

// fillMain is the child-process entry point that fills a disk cache with
// one cold pipeline run. It writes the run's outputs to -out and its
// deterministic counts, as JSON, to -out with ".counts" appended.
func fillMain(args []string) error {
	fs := flag.NewFlagSet("fill", flag.ContinueOnError)
	dir := fs.String("dir", "", "cache directory to fill")
	seed := fs.Int64("seed", 1, "exploration seed")
	out := fs.String("out", "", "file receiving the pipeline's outputs")
	size := fs.String("params", "", "pipeline size as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var p params
	if err := json.Unmarshal([]byte(*size), &p); err != nil {
		return fmt.Errorf("-params: %w", err)
	}
	return fill(context.Background(), *dir, *out, p, *seed, nil)
}

// recordMain prints golden.json for the benchmark's pipeline size.
func recordMain(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("record takes no arguments")
	}
	g, err := recordGolden(context.Background(), benchParams, goldenSlots)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// quantile is the linear-interpolation q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// selfPeakRSSMB is this process's peak resident set size since the last
// resetPeakRSS.
func selfPeakRSSMB() float64 {
	mb, _ := vmHWM("/proc/self/status") // 0 where /proc is unavailable
	return mb
}

// resetPeakRSS restarts the peak resident set size from the current one
// (Linux: "5" to clear_refs), so a peak can be taken per iteration.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak spans the run
}

// gcSnapshot is the GC cycle count and total pause time so far.
func gcSnapshot() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}
