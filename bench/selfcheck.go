package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// childResult is the driver's result line, as a child process printed it.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild measures one workload in a process of its own, exactly as
// the driver does, so that every run pays a cold set-up.
func runChild(cfg config, name string, seed int64) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", "0", "-out", cfg.outDir}
	if cfg.sz.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// Run waits for the child to exit; a failed oracle exits non-zero
	// after printing its result line, which is still parsed below.
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", name, seed, err)
	}
	return &res, nil
}

// runSelfcheck runs the whole set twice per seed, A and B interleaved
// workload by workload, and prints for each metric × workload: the
// spread of A over the seeds (interquartile range ÷ median, the
// driver's statistic), the change of the median from A to B, and the
// bound both must stay within. Metrics that are a pure function of the
// seed must print the same digits in A and B. It reports false when
// anything is out of bounds.
func runSelfcheck(out io.Writer, cfg config, seeds int) (bool, error) {
	type pair struct{ a, b []float64 }
	ok := true
	for _, def := range workloadDefs {
		series := map[string]*pair{}
		for _, d := range endToEnd {
			series[d.Name] = &pair{}
		}
		for i := 0; i < seeds; i++ {
			seed := cfg.seed + int64(i)
			var ab [2]*childResult
			for side := range ab {
				res, err := runChild(cfg, def.Name, seed)
				if err != nil {
					return false, err
				}
				if !res.Correct {
					fmt.Fprintf(out, "%s seed %d: oracles failed\n", def.Name, seed)
					ok = false
				}
				ab[side] = res
			}
			for _, d := range endToEnd {
				a, b := ab[0].Metrics[d.Name].Value, ab[1].Metrics[d.Name].Value
				series[d.Name].a = append(series[d.Name].a, a)
				series[d.Name].b = append(series[d.Name].b, b)
				if d.exact && !sameBits(a, b) {
					fmt.Fprintf(out, "%s seed %d: %s is a function of the seed but read %v then %v\n", def.Name, seed, d.Name, a, b)
					ok = false
				}
			}
		}
		fmt.Fprintf(out, "\n%s (%d seeds)\n  %-20s %14s %9s %9s %7s\n", def.Name, seeds, "metric", "median A", "spread A", "B vs A", "bound")
		for _, d := range endToEnd {
			p := series[d.Name]
			ma, mb := median(p.a), median(p.b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sp := spread(p.a)
			if seeds < 4 {
				sp = 0 // quartiles of fewer than four runs say nothing
			}
			verdict := ""
			if d.Name != "setup_s" && sp > d.Bound {
				verdict, ok = "  SPREAD EXCEEDS BOUND", false
			} else if d.Name != "setup_s" && sp > d.Bound/3 {
				verdict = "  (spread above a third of the bound)"
			}
			if worse > d.Bound {
				verdict, ok = verdict+"  B WORSE THAN A BY MORE THAN THE BOUND", false
			}
			fmt.Fprintf(out, "  %-20s %14.6g %8.2f%% %+8.2f%% %6.1f%%%s\n", d.Name, ma, 100*sp, 100*worse, 100*d.Bound, verdict)
			fmt.Fprintf(out, "    A %s\n    B %s\n", compact(p.a), compact(p.b))
		}
	}
	return ok, nil
}

// compact prints a series at four significant digits, every run made.
func compact(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
