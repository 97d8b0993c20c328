// Command perfbench is the repository's end-to-end benchmark. For one
// workload it brings the workload's topology up in this process on
// real loopback HTTP, drives it from a single closed-loop client over
// one connection for a fixed time, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as
// the last line of standard output:
//
//	perfbench -workload sweep_fixed -seed 1 -seconds 10 -trace 0
//
// README.md in this directory describes the workloads, every metric
// and how the traced run attributes time to layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses the flags, runs one benchmark and prints its environment
// record followed by the result line. It returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o Options
	fs.StringVar(&o.Workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.Seed, "seed", 1, "workload seed; the same seed generates the same requests")
	fs.Float64Var(&o.Seconds, "seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	fs.StringVar(&o.StateDir, "state", filepath.Join(".bench_build", "state"), "directory for job stores and the cross-run ring record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.Trace = *trace == 1
	o.Setups = defaultSetups
	res, err := Run(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	env, err := json.Marshal(map[string]any{"env": res.Env})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(env))
	fmt.Fprintln(stdout, string(line))
	return 0
}
