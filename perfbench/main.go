// Command perfbench is fabricpower's study-level benchmark. It runs one
// workload through the public front doors — study.Grid.Run in process,
// or a studyd server over loopback HTTP — checks every result record
// against the workload's reference, and prints its metrics as the last
// line of standard output:
//
//	perfbench -workload fabric-sweep -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run;
// with -trace 1 it replays the workload through the layers' own
// constructors with timers around each call and reports per-layer
// metrics, writing the spans as Chrome trace JSON. Run it from the
// repository root; see README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "setup":
			return runSetup(args[1:])
		case "collect":
			return runCollect(args[1:])
		case "compare":
			return runCompare(args[1:])
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 32, "how long to measure")
	traced := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := makeWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var res *result
	if *traced != 0 {
		res = traceRun(w, *seed, *seconds)
	} else {
		res = measure(w, *seed, *seconds)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runSetup is the set-up child process: it prints one setupReport.
func runSetup(args []string) int {
	fs := flag.NewFlagSet("perfbench setup", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to set up")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := makeWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup:", err)
		return 2
	}
	rep, err := setupChild(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup:", err)
		return 1
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	return 0
}
