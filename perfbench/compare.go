package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runCollect runs the benchmark untraced once per workload and seed,
// each in a fresh process measuring BENCHMARK.json's run_seconds, and
// appends each run's result line to <out>/<workload>.jsonl — one result
// set for compare.
func runCollect(args []string) int {
	fs := flag.NewFlagSet("perfbench collect", flag.ContinueOnError)
	names := fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	seeds := fs.String("seeds", "1,2,3,4,5,6,7,8,9,10", "comma-separated seeds")
	out := fs.String("out", "", "directory to append result lines to")
	if err := fs.Parse(args); err != nil || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench collect -out DIR [-workloads a,b] [-seeds 1,2]")
		return 2
	}
	spec, err := loadBench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench collect:", err)
		return 1
	}
	seconds := strconv.Itoa(spec.RunSeconds)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench collect:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench collect:", err)
		return 1
	}
	status := 0
	for _, name := range strings.Split(*names, ",") {
		for _, seed := range strings.Split(*seeds, ",") {
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", seed, "-seconds", seconds, "-trace", "0")
			cmd.Stderr = os.Stderr
			start := time.Now()
			stdout, err := cmd.Output()
			cancel()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
			last := lines[len(lines)-1]
			fmt.Fprintf(os.Stderr, "%s seed %s: %.1f s, %s\n", name, seed, time.Since(start).Seconds(), last)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench collect: %s seed %s: %v\n", name, seed, err)
				status = 1
				continue
			}
			f, err := os.OpenFile(filepath.Join(*out, name+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err == nil {
				_, err = f.Write(append(last, '\n'))
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench collect:", err)
				return 1
			}
		}
	}
	return status
}

// benchSpec is the part of BENCHMARK.json collect and compare read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare prints every end-to-end metric × workload of one or two
// result sets with its median and quartiles. With one set it reports
// each spread against its bound; with two (A/A or parent/change) it
// also reports the change of the median, and calls a metric whose own
// spread exceeds its bound in either set unresolved, not passing.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A [B]")
		return 2
	}
	spec, err := loadBench()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	sets := make([]map[string]map[string][]float64, fs.NArg())
	for i := range sets {
		if sets[i], err = loadSet(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
	}
	var workloads []string
	for w := range sets[0] {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	status := 0
	for _, w := range workloads {
		fmt.Printf("%s\n", w)
		for _, mt := range spec.EndToEnd {
			cells := []string{fmt.Sprintf("  %-24s", mt.Name)}
			var meds []float64
			unresolved := false
			missing := false
			for _, set := range sets {
				vals := set[w][mt.Name]
				if len(vals) < 2 {
					missing = true
					cells = append(cells, fmt.Sprintf("%d runs", len(vals)))
					continue
				}
				q1, q2, q3 := quartiles(vals)
				spread := ratio(q3-q1, q2)
				meds = append(meds, q2)
				flag := ""
				if spread > mt.Bound {
					flag = " NOISY"
					unresolved = true
				} else if spread > mt.Bound/3 {
					flag = " >bound/3"
				}
				cells = append(cells, fmt.Sprintf("n=%-2d med %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f/%.2f%s",
					len(vals), q2, q1, q3, spread, mt.Bound, flag))
			}
			verdict := ""
			switch {
			case missing:
				verdict = "missing"
				status = 1
			case unresolved:
				verdict = "unresolved: spread exceeds bound"
				status = 1
			case len(meds) == 2:
				worse := (meds[1] - meds[0]) / meds[0]
				if mt.Better == "higher" {
					worse = -worse
				}
				verdict = fmt.Sprintf("B worse by %+.3f", worse)
				if worse > mt.Bound {
					verdict += " REGRESSION"
					status = 1
				} else {
					verdict += " within bound"
				}
			default:
				verdict = "steady"
			}
			fmt.Println(strings.Join(cells, " | ") + " | " + verdict)
		}
	}
	return status
}

// loadBench reads BENCHMARK.json from the repository root, where the
// benchmark runs.
func loadBench() (*benchSpec, error) {
	const path = "BENCHMARK.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if spec.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds must be at least 1", path)
	}
	return &spec, nil
}

// loadSet reads <dir>/<workload>.jsonl result lines into workload →
// metric → values, skipping runs that failed their check.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no <workload>.jsonl result files", dir)
	}
	out := map[string]map[string][]float64{}
	for _, path := range files {
		w := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		out[w] = map[string][]float64{}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil || !r.Correct {
				continue
			}
			for name, mt := range r.Metrics {
				out[w][name] = append(out[w][name], mt.Value)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
