// Command benchharness regenerates every table and figure of the
// paper's evaluation (Section 5) and prints paper-vs-measured rows, plus
// the directory-scale, open-loop load and restart experiments that go
// beyond the paper.
//
// Usage:
//
//	benchharness [-exp all|table1|fig10|sec52|fig11|dirscale|load|restart] [-iters N] [-msgs N] [-json]
//
// With -json, each experiment additionally writes its rows to
// BENCH_<exp>.json in the working directory, for machine consumption
// (cross-checking figures against the obs-layer histograms, CI trend
// tracking).
//
// See EXPERIMENTS.md for the recorded results and the shape criteria.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig10, sec52, fig11, dirscale, load, restart")
	iters := flag.Int("iters", 10, "mapping iterations per device type (fig10) / actions (sec52)")
	msgs := flag.Int("msgs", 0, "messages per transport test (fig11); 0 = defaults")
	pops := flag.String("pops", "", "comma-separated population points for dirscale (default 100,1000,10000)")
	mesh := flag.String("mesh", "1000x10", "comma-separated POPxNODES mesh points for dirscale (e.g. 100000x50,1000x10); empty skips the mesh phase")
	window := flag.Duration("window", time.Second, "measurement window per dirscale phase")
	bindings := flag.String("bindings", "1000", "comma-separated binding populations for the load experiment")
	rate := flag.Float64("rate", 2000, "offered msgs/sec for the load experiment")
	loadDur := flag.Duration("loaddur", 5*time.Second, "emission window for the load experiment")
	churn := flag.Float64("churn", 0, "injected sink flaps/sec for the load experiment")
	entries := flag.Int("entries", 10000, "directory population for the restart experiment")
	jsonOut := flag.Bool("json", false, "also write each experiment's rows to BENCH_<exp>.json")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	popList, err := parsePops(*pops)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchharness: -pops: %v\n", err)
		os.Exit(2)
	}
	meshList, err := parseMeshPoints(*mesh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchharness: -mesh: %v\n", err)
		os.Exit(2)
	}
	writeJSON := func(name string, v any) error {
		if !*jsonOut {
			return nil
		}
		path := "BENCH_" + name + ".json"
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	run := func(name string, fn func() error) {
		switch *exp {
		case "all", name:
			if err := fn(); err != nil {
				fmt.Fprintf(os.Stderr, "benchharness: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}
	known := map[string]bool{"all": true, "table1": true, "fig10": true, "sec52": true, "fig11": true, "dirscale": true, "load": true, "restart": true}
	if !known[*exp] {
		fmt.Fprintf(os.Stderr, "benchharness: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	run("table1", func() error { return printTable1(writeJSON) })
	run("fig10", func() error { return printFig10(*iters, writeJSON) })
	run("sec52", func() error { return printSec52(*iters, writeJSON) })
	run("fig11", func() error { return printFig11(*msgs, writeJSON) })
	run("dirscale", func() error { return printDirScale(popList, meshList, *window, writeJSON) })
	run("load", func() error { return printLoad(*bindings, *rate, *loadDur, *churn, writeJSON) })
	run("restart", func() error { return printRestart(*entries, writeJSON) })
}

func printRestart(entries int, writeJSON jsonWriter) error {
	fmt.Printf("== Restart chaos: warm restart from the durability log vs cold rediscovery (N=%d, 10 Mbps bus) ==\n", entries)
	logf := func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }
	row, err := bench.RunRestart(entries, logf)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "test\tentries\tpeers\tcold join ms\trestart ms\twarm/cold\treplayed\tepoch\tcfg applies\tcfg sent\tcfg delivered\tcfg dropped")
	fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.0f\t%.3f\t%d\t%d\t%d\t%d\t%d\t%.0f\n",
		row.Test, row.Entries, row.PeerNodes, row.ColdJoinMillis,
		row.RestartToFirstDeliveryMillis, row.WarmColdRatio,
		row.ReplayedRemotes, row.RestartEpoch, row.ConfigApplies,
		row.ConfigApplySent, row.ConfigApplyDelivered, row.ConfigApplyDroppedMsgs)
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeJSON("restart", []bench.RestartRow{row}); err != nil {
		return err
	}
	fmt.Println("shape check: a warm restart replays the population from the local log instead of")
	fmt.Println("pulling it back over the wire, so restart-to-first-delivery must sit well under")
	fmt.Println("the cold-join time; hot-reload config applies on a loaded path must drop nothing.")
	fmt.Println()
	return nil
}

func printLoad(bindings string, rate float64, dur time.Duration, churn float64, writeJSON jsonWriter) error {
	pops, err := parsePops(bindings)
	if err != nil {
		return fmt.Errorf("-bindings: %w", err)
	}
	if len(pops) == 0 {
		pops = []int{1000}
	}
	points := make([]bench.LoadPoint, 0, len(pops))
	for _, b := range pops {
		points = append(points, bench.LoadPoint{Bindings: b, Rate: rate, Duration: dur, ChurnPerSec: churn})
	}
	fmt.Printf("== Open-loop load: concurrent dynamic bindings under a fixed arrival schedule ==\n")
	logf := func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }
	rows, err := bench.RunLoad(points, logf)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "test\tbindings\toffered/s\tachieved/s\tp50 ms\tp99 ms\tp99.9 ms\tsent\tdelivered\tdropped\tflaps\tsetup s")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%.2f\t%.2f\t%.2f\t%d\t%d\t%d\t%d\t%.1f\n",
			r.Test, r.Bindings, r.OfferedPerSec, r.AchievedPerSec,
			r.P50Ms, r.P99Ms, r.P999Ms, r.Sent, r.Delivered, r.Dropped, r.ChurnFlaps, r.SetupSec)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeJSON("load", rows); err != nil {
		return err
	}
	fmt.Println("shape check: latency is intended-start -> delivery (open loop): a stall inflates")
	fmt.Println("the tail instead of silently slowing the schedule. Achieved must track offered;")
	fmt.Println("a netemu group-inbox overflow fails the run loudly rather than skewing the tail.")
	fmt.Println()
	return nil
}

// parseMeshPoints parses the -mesh flag ("100000x50,1000x10"); empty
// skips the mesh phase entirely.
func parseMeshPoints(s string) ([]bench.MeshPoint, error) {
	if s == "" {
		return nil, nil
	}
	var out []bench.MeshPoint
	for _, part := range strings.Split(s, ",") {
		pop, nodes, ok := strings.Cut(strings.TrimSpace(part), "x")
		if !ok {
			return nil, fmt.Errorf("bad mesh point %q (want POPxNODES)", part)
		}
		p, err := strconv.Atoi(pop)
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("bad mesh population %q", part)
		}
		n, err := strconv.Atoi(nodes)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad mesh node count %q", part)
		}
		out = append(out, bench.MeshPoint{Population: p, Nodes: n})
	}
	return out, nil
}

// parsePops parses the -pops flag ("100,1000,10000"); empty selects the
// experiment's defaults.
func parsePops(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad population %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// jsonWriter persists one experiment's rows when -json is set.
type jsonWriter func(name string, v any) error

func printTable1(writeJSON jsonWriter) error {
	fmt.Println("== Table 1: mutual compatibility of design choices ==")
	fmt.Println("(O = the two choices can coexist, - = they cannot)")
	choices := core.AllChoices()
	w := tabwriter.NewWriter(os.Stdout, 4, 0, 1, ' ', 0)
	fmt.Fprint(w, "\t")
	for _, c := range choices {
		fmt.Fprintf(w, "%s\t", c)
	}
	fmt.Fprintln(w)
	for _, x := range choices {
		fmt.Fprintf(w, "%s\t", x)
		for _, y := range choices {
			switch {
			case x == y:
				fmt.Fprint(w, "·\t")
			case core.ChoicesCompatible(x, y):
				fmt.Fprint(w, "O\t")
			default:
				fmt.Fprint(w, "-\t")
			}
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nuMiddle's design point (must be pairwise compatible):")
	for _, c := range core.UMiddleDesign() {
		fmt.Printf("  %s  %s\n", c, c.Label())
	}
	if !core.DesignValid(core.UMiddleDesign()) {
		return fmt.Errorf("uMiddle design point is inconsistent")
	}
	design := core.UMiddleDesign()
	labels := make([]string, len(design))
	for i, c := range design {
		labels[i] = c.Label()
	}
	if err := writeJSON("table1", map[string]any{"design": design, "labels": labels, "valid": true}); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func printFig10(iters int, writeJSON jsonWriter) error {
	fmt.Printf("== Figure 10: service-level bridging (translator generation), %d mappings per device ==\n", iters)
	rows, err := bench.RunFigure10(iters)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "device\tports\tpaper inst/s\tmeasured inst/s\tmeasured mean\tsamples")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%v\t%d\n",
			r.Device, r.Ports, r.PaperInstancesPerSec, r.MeasuredInstancesPerSec,
			r.MeasuredMean.Round(time.Microsecond*100), r.Samples)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeJSON("fig10", rows); err != nil {
		return err
	}
	fmt.Println("shape check: the clock (14 ports, 3 services) must map slowest of the four devices.")
	fmt.Println()
	return nil
}

func printSec52(iters int, writeJSON jsonWriter) error {
	if iters < 10 {
		iters = 10
	}
	fmt.Printf("== Section 5.2: device-level bridging, %d operations per case ==\n", iters)
	upnpRow, err := bench.RunSec52UPnP(iters)
	if err != nil {
		return err
	}
	btRow, err := bench.RunSec52Bluetooth(iters)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "case\tpaper total\tpaper native\tmeasured total\tmeasured native\tmeasured uMiddle")
	for _, r := range []bench.Sec52Row{upnpRow, btRow} {
		native := "-"
		if r.PaperNative > 0 {
			native = r.PaperNative.String()
		}
		mNative := "-"
		if r.MeasuredNative > 0 {
			mNative = r.MeasuredNative.Round(time.Microsecond * 100).String()
		}
		fmt.Fprintf(w, "%s\t%v\t%s\t%v\t%s\t%v\n",
			r.Case, r.PaperTotal, native,
			r.MeasuredTotal.Round(time.Microsecond*100), mNative,
			r.MeasuredUMiddle.Round(time.Microsecond/10))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeJSON("sec52", []bench.Sec52Row{upnpRow, btRow}); err != nil {
		return err
	}
	fmt.Println("shape check: the infrastructure itself contributes little to the overhead (paper Section 5.2);")
	fmt.Println("uMiddle's share is each action's Deliver time minus the native call inside it.")
	fmt.Println()
	return nil
}

func printFig11(msgs int, writeJSON jsonWriter) error {
	fmt.Println("== Figure 11: transport-level bridging throughput (1400-byte messages, 10 Mbps links) ==")
	rows, err := bench.RunFigure11(msgs)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "test\tpaper Mbps\tmeasured Mbps\tmessages\telapsed")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%d\t%v\n",
			r.Test, r.PaperMbps, r.MeasuredMbps, r.Messages, r.Elapsed.Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeJSON("fig11", rows); err != nil {
		return err
	}
	fmt.Println("shape check: TCP > MB > RMI > RMI-MB, bridged paths pay marshal/unmarshal twice.")
	fmt.Println()
	return nil
}

func printDirScale(pops []int, mesh []bench.MeshPoint, window time.Duration, writeJSON jsonWriter) error {
	fmt.Println("== Directory at scale: population vs lookup rate and advert bandwidth ==")
	rows, err := bench.RunDirScale(pops, window)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "test\tpop\tnodes\tconverge\tlookups/s\tmean\tp99\tadvert B/s\tobs pop\tobs integ B")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%.0f\t%v\t%v\t%.0f\t%d\t%.0f\n",
			r.Test, r.Population, r.Nodes, r.ConvergeTime.Round(time.Millisecond),
			r.LookupsPerSec, r.LookupMean.Round(time.Microsecond), r.LookupP99.Round(time.Microsecond),
			r.AdvertBytesPerSec, r.ObserverPopulation, r.IntegratedAdvertBytes)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	merged := make([]any, 0, len(rows)+len(mesh))
	for _, r := range rows {
		merged = append(merged, r)
	}
	if len(mesh) > 0 {
		fmt.Println("\n-- federated mesh: chained zones, interest-filtered, relayed adverts --")
		meshRows, err := bench.RunDirScaleMesh(mesh, window)
		if err != nil {
			return err
		}
		mw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		fmt.Fprintln(mw, "test\tpop\tnodes\tconverge\tper-node advert B/s\tzone join\t3-node baseline")
		for _, r := range meshRows {
			fmt.Fprintf(mw, "%s\t%d\t%d\t%v\t%.0f\t%v\t%v\n",
				r.Test, r.Population, r.Nodes, r.ConvergeTime.Round(time.Millisecond),
				r.PerNodeAdvertBytesPerSec, r.ZoneJoinTime.Round(time.Millisecond),
				r.Baseline3JoinTime.Round(time.Millisecond))
			merged = append(merged, r)
		}
		if err := mw.Flush(); err != nil {
			return err
		}
	}
	if err := writeJSON("dirscale", merged); err != nil {
		return err
	}
	fmt.Println("shape check: lookup rate must not collapse with population (indexed, not O(N) scans),")
	fmt.Println("steady-state advert bandwidth must not grow O(N) (delta anti-entropy, not full-state),")
	fmt.Println("and the filtered observer's integrated advert bytes must sit well under the")
	fmt.Println("unfiltered observer's at the same population (interest-driven selective propagation).")
	fmt.Println("mesh: per-node advert bandwidth must stay population-independent across the chain,")
	fmt.Println("and a fresh zone must join within a small factor of the 3-node baseline.")
	fmt.Println()
	return nil
}
