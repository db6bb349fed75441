// Command stackbench drives one workload through the jiffy stack and
// prints one JSON line: the output-check verdict, the operations attempted
// and failed, and either the end-to-end metrics (-trace 0) or the
// per-layer metrics of a traced run (-trace 1). See README.md.
//
//	bash stackbench/run.sh --workload embedded --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// procStart is the set-up clock's zero: setup_s covers everything from
// process start to the first measured operation.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: embedded, served-read or served-durable-write")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 20, "measured seconds (a traced run splits them between its untraced and traced phases)")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
		data    = flag.String("data", ".bench_build/stackbench/data", "parent directory of the durable workload's temporary store")
	)
	flag.Parse()
	sp, ok := lookupSpec(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "stackbench: need -workload one of %s, -seconds > 0, -trace 0 or 1\n", specNames())
		os.Exit(2)
	}
	res, err := execute(sp, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
