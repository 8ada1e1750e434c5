// Command conformance runs the declarative scenario conformance suite:
// it loads a corpus directory (conformance/v1 JSON files), executes every
// case through the public optimizer API under the corpus's execution
// matrix (solver backend × worker counts × restart shard splits), checks
// every declared invariant, and exits nonzero unless every check passes.
//
// Usage:
//
//	go run ./cmd/conformance -corpus coverage/testdata/corpus
//	go run ./cmd/conformance -corpus coverage/testdata/corpus -solvers dense -workers 1
//	go run ./cmd/conformance -corpus coverage/testdata/corpus -validate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/conformance"
)

func main() {
	corpusDir := flag.String("corpus", "coverage/testdata/corpus", "corpus directory to run")
	solvers := flag.String("solvers", "", "comma-separated solver filter (e.g. dense; empty = corpus matrix)")
	workers := flag.String("workers", "", "comma-separated worker-count filter (e.g. 1,4; empty = corpus matrix)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrently executing cases")
	validate := flag.Bool("validate", false, "validate corpus files only (schema check), do not execute")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON on stdout")
	verbose := flag.Bool("v", false, "print every check, not just failures")
	flag.Parse()

	if err := run(*corpusDir, *solvers, *workers, *parallel, *validate, *jsonOut, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "conformance:", err)
		os.Exit(1)
	}
}

func run(dir, solvers, workers string, parallel int, validateOnly, jsonOut, verbose bool) error {
	corpora, err := conformance.LoadDir(dir)
	if err != nil {
		return err
	}
	if validateOnly {
		cases := 0
		for _, c := range corpora {
			cases += len(c.Cases)
		}
		fmt.Printf("ok: %d corpus files, %d cases validate against %s\n", len(corpora), cases, conformance.Version)
		return nil
	}

	cfg := conformance.Config{Parallel: parallel}
	if solvers != "" {
		cfg.Solvers = strings.Split(solvers, ",")
	}
	if workers != "" {
		for _, w := range strings.Split(workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil {
				return fmt.Errorf("bad -workers value %q: %v", w, err)
			}
			cfg.Workers = append(cfg.Workers, n)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	rep, err := conformance.Run(ctx, corpora, cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(rep, verbose)
		fmt.Printf("%s in %.1fs\n", rep.Summary(), time.Since(start).Seconds())
	}
	if !rep.Pass() {
		return fmt.Errorf("conformance failed: %d failing checks", rep.Failures)
	}
	return nil
}

func printReport(rep *conformance.Report, verbose bool) {
	for _, f := range rep.Files {
		status := "ok"
		if !f.Pass() {
			status = "FAIL"
		}
		fmt.Printf("%-20s %s (%d cases, %d checks)\n", f.Family, status, f.Cases, len(f.Checks))
		for _, ch := range f.Checks {
			if ch.Pass && !verbose {
				continue
			}
			mark := "pass"
			if !ch.Pass {
				mark = "FAIL"
			}
			cell := ch.Solver
			if ch.Workers > 0 {
				cell = fmt.Sprintf("%s/w%d", ch.Solver, ch.Workers)
			}
			fmt.Printf("  [%s] %-12s %s", mark, cell, ch.Invariant)
			if ch.Detail != "" {
				fmt.Printf(" — %s", ch.Detail)
			}
			fmt.Println()
		}
	}
}
