package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// child runs one workload once in a fresh process — fresh pools, a fresh
// peak-RSS mark — exactly as the driver does, and parses its result line.
func child(ctx context.Context, o options, daemon, workload string, seed uint64, trace int) (report, error) {
	var rep report
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	args := []string{
		"-root", o.root, "-out", o.out, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if daemon != "" {
		args = append(args, "-daemon", daemon)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("%s seed %d: no result line (%v): %w", workload, seed, runErr, err)
	}
	return rep, nil
}

// orchestrate is the one-command run: every workload untraced, its metrics
// printed by name with units and its outputs verified, then its traced run.
// With -sets it is the repeatability self-check instead.
func orchestrate(ctx context.Context, o options) int {
	daemon := o.daemon
	if daemon == "" && !o.smoke {
		var err error
		if daemon, err = buildDaemon(ctx, o.root); err != nil {
			return fail(err)
		}
	}
	fmt.Println("environment:", envLine(environment(o.root, daemon)))
	if o.sets > 0 {
		return selfCheck(ctx, o, daemon)
	}
	code := 0
	for _, w := range workloads {
		for trace, title := range []string{"end to end", "per layer (traced run)"} {
			rep, err := child(ctx, o, daemon, w.name, o.seed, trace)
			if err != nil {
				return fail(err)
			}
			printReport(w.name+": "+title, rep)
			if !rep.Correct {
				code = 1
			}
		}
	}
	return code
}

// printReport writes a report as "name value unit" lines in table order.
func printReport(title string, r report) {
	fmt.Printf("%s  (correct=%v attempted=%d failed=%d)\n", title, r.Correct, r.Attempted, r.Failed)
	var names []string
	for _, d := range endToEnd {
		names = append(names, d.Name)
	}
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	for _, n := range names {
		if v, ok := r.Metrics[n]; ok {
			fmt.Printf("  %-36s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the driver judges spreads by.
func quartiles(values []float64) (q1, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// selfCheck runs -sets sets of -runs runs of every workload, seeds
// seed..seed+runs-1 in each, and applies the driver's acceptance rule to
// this machine: within a set, each end-to-end metric's interquartile range
// over its median must stay within the metric's bound (set-up excepted);
// between the first set and every later one, no median may be worse by
// more than the bound. It prints the table README.md records.
func selfCheck(ctx context.Context, o options, daemon string) int {
	type key struct{ workload, metric string }
	vals := make([]map[key][]float64, o.sets)
	for s := range vals {
		vals[s] = map[key][]float64{}
		for _, w := range workloads {
			if o.workload != "" && w.name != o.workload {
				continue
			}
			for r := 0; r < o.runs; r++ {
				rep, err := child(ctx, o, daemon, w.name, o.seed+uint64(r), 0)
				if err != nil {
					return fail(err)
				}
				if !rep.Correct {
					return fail(fmt.Errorf("%s seed %d: incorrect result", w.name, o.seed+uint64(r)))
				}
				for name, v := range rep.Metrics {
					k := key{w.name, name}
					vals[s][k] = append(vals[s][k], v.Value)
				}
			}
		}
	}
	code := 0
	var table strings.Builder
	table.WriteString("| workload | metric | bound | median (set 1) | spread per set | later medians vs set 1 | verdict |\n")
	table.WriteString("| --- | --- | --- | --- | --- | --- | --- |\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			if len(vals[0][k]) == 0 {
				continue
			}
			verdict := "ok"
			var spreads, drifts []string
			base := median(vals[0][k])
			for s := range vals {
				q1, q3 := quartiles(vals[s][k])
				med := median(vals[s][k])
				spread := (q3 - q1) / med
				spreads = append(spreads, fmt.Sprintf("%.1f%%", 100*spread))
				if d.Name != "setup_s" && spread > d.Bound {
					verdict = "SPREAD OVER BOUND"
				} else if d.Name != "setup_s" && spread > d.Bound/3 && verdict == "ok" {
					verdict = "spread over a third of the bound"
				}
				if s == 0 {
					continue
				}
				worse := (med - base) / base
				if d.Better == "higher" {
					worse = (base - med) / base
				}
				drifts = append(drifts, fmt.Sprintf("%+.1f%%", 100*worse))
				if worse > d.Bound {
					verdict = "MEDIAN WORSE BY MORE THAN THE BOUND"
				}
			}
			if strings.ToUpper(verdict) == verdict {
				code = 1
			}
			fmt.Fprintf(&table, "| %s | %s | %.0f%% | %.6g %s | %s | %s | %s |\n",
				w.name, d.Name, 100*d.Bound, base, d.Unit, strings.Join(spreads, " / "), strings.Join(drifts, " / "), verdict)
		}
	}
	fmt.Print(table.String())
	return code
}
