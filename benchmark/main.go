// Command benchmark is the repo benchmark: four sequential,
// oracle-checked workloads over netemu with end-to-end metrics, and a
// traced mode that attributes them to layers. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// header is the environment a result was taken in.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"window_seconds"` // per workload; result.Windows has the phases
}

// report is the layout of the -out file and of out/result-<workload>.json.
type report struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

func (rep report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func resultFile(workload string) string {
	return filepath.Join(outDir, "result-"+workload+".json")
}

func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := flags.String("workload", "", "run this workload and end with the driver's one-line JSON result (default: the set, each workload in a process of its own)")
	seed := flags.Int64("seed", 1, "seed of every generated input")
	seconds := flags.Float64("seconds", 0, fmt.Sprintf("measured seconds per workload (default %d; traced %d, half of it the untraced reference)", defaultSeconds, tracedSeconds))
	trace := flags.Bool("trace", false, "traced run: per-layer metrics, layer probes, spans in out/trace-<workload>.json")
	repeat := flags.Int("repeat", 1, "run the set N times, print each metric's spread and fail if one exceeds half its bound")
	out := flags.String("out", "", "also write the results, with their header, to this JSON file")
	if err := flags.Parse(splitTrace(args)); err != nil {
		return 2
	}
	if *seconds == 0 {
		*seconds = defaultSeconds
		if *trace {
			*seconds = tracedSeconds
		}
	}
	rep := report{Header: header{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Seed: *seed, Traced: *trace, Seconds: *seconds,
	}}
	hdr := rep.Header
	fmt.Fprintf(stdout, "# commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d traced=%v window_seconds=%g\n",
		hdr.Commit, hdr.GoVersion, hdr.GOMAXPROCS, hdr.NumCPU, hdr.CPUModel, hdr.Seed, hdr.Traced, hdr.Seconds)

	var err error
	if *workload != "" {
		err = runOne(&rep, *workload, stdout)
	} else {
		err = runSet(&rep, *repeat, stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	ok := *repeat == 1 || printSpread(stdout, rep.Runs)
	for _, r := range rep.Runs {
		ok = ok && r.Failed == 0
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in this process — the only way a workload ever
// runs — leaves its report in out/result-<workload>.json, and ends the
// output with the driver's line. A traced run also runs the layer probes:
// they do not depend on the workload, but the driver wants every per-layer
// metric from every traced run.
func runOne(rep *report, name string, stdout io.Writer) error {
	hdr := rep.Header
	r, err := runWorkload(name, runConfig{seed: hdr.Seed, seconds: hdr.Seconds, trace: hdr.Traced, scale: fullScale})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if hdr.Traced {
		if err := runProbes(r.PerLayer, 1); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	rep.Runs = append(rep.Runs, r)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := rep.write(resultFile(name)); err != nil {
		return err
	}
	printResult(stdout, r)
	printDriverLine(stdout, r, hdr.Traced)
	return nil
}

// runSet runs the four workloads, repeat times over, each in a child
// process as the driver runs them, so that no workload sees what an
// earlier one left in the runtime: the Go runtime keeps the descriptors of
// bind_churn's ten thousand dead goroutines, which in one process read as
// 3.4 MiB of the next world's live_mb (README.md). The child hands
// its result back through out/result-<workload>.json.
func runSet(rep *report, repeat int, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	hdr := rep.Header
	for i := 0; i < repeat; i++ {
		for _, name := range workloadNames {
			file := resultFile(name)
			if err := os.Remove(file); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(hdr.Seed),
				"-seconds", fmt.Sprint(hdr.Seconds), fmt.Sprintf("-trace=%v", hdr.Traced))
			cmd.Stderr = os.Stderr
			runErr := cmd.Run() // exit status 1 beside a result means ops failed; the result says which
			data, err := os.ReadFile(file)
			if err != nil {
				return fmt.Errorf("%s: child left no result (%v): %w", name, runErr, err)
			}
			var child report
			if err := json.Unmarshal(data, &child); err != nil || len(child.Runs) != 1 {
				return fmt.Errorf("%s: child result unreadable: %v", name, err)
			}
			printResult(stdout, child.Runs[0])
			rep.Runs = append(rep.Runs, child.Runs[0])
		}
	}
	return nil
}

// splitTrace lets the boolean -trace also be written "--trace 0|1", the
// form the driver uses: the value is folded into the flag.
func splitTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printResult prints every metric of one run by name, with its unit.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s attempted=%d failed=%d latency_samples=%d windows_s=%v\n",
		r.Workload, r.Attempted, r.Failed, r.Samples, r.Windows)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED: %s\n", r.Workload, f)
	}
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "%s/%-20s %16.4f %s\n", r.Workload, m.Name, v.Value, v.Unit)
		}
	}
	printLayer(w, r.Workload, r.PerLayer)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "%s spans -> %s\n", r.Workload, r.TraceFile)
		for _, s := range r.Spans {
			fmt.Fprintf(w, "%s/span %-26s n=%-7d total %12.1f us  self %12.1f us\n",
				r.Workload, s.Name, s.Count, float64(s.TotalNs)/1e3, float64(s.SelfNs)/1e3)
		}
	}
}

func printLayer(w io.Writer, prefix string, got map[string]value) {
	for _, m := range perLayer {
		if v, ok := got[m.Name]; ok {
			fmt.Fprintf(w, "%s/%-32s %16.4f %s\n", prefix, m.Name, v.Value, v.Unit)
		}
	}
}

// printDriverLine ends the output with the one JSON object the driver
// reads: end-to-end metrics untraced; traced, every per-layer metric, 0 for
// a layer this workload does not exercise.
func printDriverLine(w io.Writer, r *result, traced bool) {
	metrics := make(map[string]value)
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{r.PerLayer[m.Name].Value, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = r.EndToEnd[m.Name]
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// printSpread prints, per workload and end-to-end metric, the median, min
// and max over the repeated sets and the largest deviation from the
// median as a share of it, as a Markdown table. It reports whether every
// metric stayed within half its bound.
func printSpread(w io.Writer, runs []*result) bool {
	ok := true
	fmt.Fprintf(w, "\n| workload | metric | unit | median | min | max | max dev / median | half bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			var vals []float64
			for _, r := range runs {
				if v, has := r.EndToEnd[m.Name]; has && r.Workload == name {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			med, lo, hi := medianFloat(vals), vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			dev := math.Max(hi-med, med-lo) / med
			verdict := "ok"
			if dev > m.Bound/2 {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.1f%% | %s |\n",
				name, m.Name, m.Unit, med, lo, hi, dev*100, m.Bound*50, verdict)
		}
	}
	return ok
}
