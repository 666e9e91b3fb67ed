// Command ccverify runs the checkpoint-anywhere conformance matrix: for
// every selected workload and algorithm it checks that a checkpoint taken at
// each of a sweep of step-indexed trigger points restarts into a state
// bitwise-identical to an uninterrupted run (see internal/conformance).
//
// Usage:
//
//	ccverify [-ranks N] [-ppn N] [-scale F] [-workloads a,b] [-algos cc,2pc]
//	         [-min-triggers N] [-max-triggers N] [-negative] [-crossgeo]
//	         [-incremental] [-cdc] [-lifecycle] [-contention] [-faults] [-v]
//
// Beyond the trigger matrix, the default run also verifies (on the first
// runnable case) that a checkpoint restarts correctly onto a different
// ranks-per-node geometry (-crossgeo, the allocation-chaining scenario),
// that corruption — both of a decoded snapshot and of a single shard inside
// the encoded sharded image — is detected and attributed (-negative), that
// the staged asynchronous pipeline's FileStore chains restart digest-
// identically from every epoch with incremental shard reuse and attributable
// parent-epoch corruption (-incremental, on the low-churn straggler
// workload), that content-defined-chunk chains store fewer fresh bytes than
// whole-shard reuse under both in-place churn and insertion shifts and
// reassemble byte-identically through their chunk sources (-cdc), that chain
// compaction and epoch garbage collection reclaim
// storage without changing any surviving restart and attribute dangling
// references instead of panicking (-lifecycle), that two tenants contending
// for a capacity-bounded shared drain scheduler restart digest-identically
// from every sealed epoch while backlog-forced PFS fallbacks and admission
// waits are attributed in the stats (-contention), and that killing a rank
// mid-drain or mid-capture aborts the coordinator with diagnostics instead
// of wedging (-faults).
//
// The exit status is non-zero if any check fails, making ccverify directly
// usable as a CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mana/internal/apps"
	"mana/internal/conformance"
)

func main() {
	var (
		ranks       = flag.Int("ranks", 4, "simulated ranks")
		ppn         = flag.Int("ppn", 4, "ranks per node")
		scale       = flag.Float64("scale", 0.001, "workload iteration scale (auto-doubled if too few steps)")
		workloads   = flag.String("workloads", strings.Join(apps.Names, ","), "comma-separated workloads")
		algos       = flag.String("algos", "cc,2pc", "comma-separated algorithms")
		minTriggers = flag.Int("min-triggers", 8, "minimum checkpoint trigger points per case")
		maxTriggers = flag.Int("max-triggers", 16, "trigger sweep cap (stratified sampling beyond)")
		negative    = flag.Bool("negative", true, "also verify that corrupted images (snapshot and per-shard) are detected")
		crossgeo    = flag.Bool("crossgeo", true, "also verify restart onto different ranks-per-node geometries")
		incremental = flag.Bool("incremental", true, "also verify async incremental FileStore chains (straggler workload)")
		cdc         = flag.Bool("cdc", true, "also verify content-defined-chunk chains (insertion-shifted straggler workload)")
		lifecycle   = flag.Bool("lifecycle", true, "also verify GC and chain compaction on a FileStore chain (straggler workload)")
		contention  = flag.Bool("contention", true, "also verify multi-tenant drain backpressure (queueing and PFS fallback) restarts digest-identically")
		faults      = flag.Bool("faults", true, "also verify rank-death fault injection (mid-drain and mid-capture)")
		verbose     = flag.Bool("v", false, "log every trigger point")
	)
	flag.Parse()

	wls, algoList := splitList(*workloads), splitList(*algos)
	if len(wls) == 0 || len(algoList) == 0 {
		fmt.Fprintln(os.Stderr, "ccverify: -workloads and -algos must each name at least one entry")
		os.Exit(2)
	}

	opts := conformance.Options{
		Ranks:       *ranks,
		PPN:         *ppn,
		Scale:       *scale,
		Workloads:   wls,
		Algorithms:  algoList,
		MinTriggers: *minTriggers,
		MaxTriggers: *maxTriggers,
		Verbose:     *verbose,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	start := time.Now()
	matrix, err := conformance.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccverify: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(matrix.String())

	failed := matrix.Failed()

	// The auxiliary sweeps run on the first case the matrix actually
	// executed (a skipped NA cell has no image to work with), sharing one
	// captured checkpoint across all of them.
	if *negative || *crossgeo {
		var wl, algo string
		for _, c := range matrix.Cases {
			if !c.Skipped {
				wl, algo = c.Workload, c.Algorithm
				break
			}
		}
		if wl == "" {
			fmt.Println("auxiliary checks: skipped (no runnable case in the matrix)")
		} else if verdicts, err := conformance.VerifyAuxSuite(wl, algo, opts, *negative, *crossgeo); err != nil {
			fmt.Printf("auxiliary checks (%s/%s): FAIL: %v\n", wl, algo, err)
			failed = true
		} else {
			for _, v := range verdicts {
				if v.Err != nil {
					fmt.Printf("%s check (%s/%s): FAIL: %v\n", v.Name, wl, algo, v.Err)
					failed = true
				} else {
					fmt.Printf("%s check (%s/%s): %s\n", v.Name, wl, algo, v.OK)
				}
			}
		}
	}

	// The incremental-chain sweep runs on the low-churn straggler workload —
	// most ranks finish early and freeze, so the chain actually reuses
	// shards — under the first requested algorithm that can run it.
	if *incremental {
		algo := algoList[0]
		if rpt, err := conformance.VerifyIncrementalChain(conformance.DefaultChainWorkload, algo, opts, true); err != nil {
			fmt.Printf("incremental-chain check (%s/%s): FAIL: %v\n", conformance.DefaultChainWorkload, algo, err)
			failed = true
		} else {
			fmt.Printf("incremental-chain check (%s/%s): %s, ok\n", conformance.DefaultChainWorkload, algo, rpt)
		}
	}

	// The CDC sweep runs two straggler chains with content-defined chunking
	// on — page-scale in-place churn and insertion shifts: changed shards
	// must be stored as chunk objects that shrink the fresh bytes against
	// whole-shard reuse, restart digest-identically from every sealed epoch
	// (and after compaction), and attribute damaged chunk sources.
	if *cdc {
		algo := algoList[0]
		if rpt, err := conformance.VerifyCDCChain(algo, opts); err != nil {
			fmt.Printf("cdc-chain check (straggler/%s): FAIL: %v\n", algo, err)
			failed = true
		} else {
			fmt.Printf("cdc-chain check (straggler/%s): %s, ok\n", algo, rpt)
		}
	}

	// The lifecycle sweep reuses the same low-churn chain shape: compaction
	// must restore the depth-1 restart read, GC must reclaim every dead
	// epoch without touching a live reference, and a broken chain must be
	// attributed rather than panicking.
	if *lifecycle {
		algo := algoList[0]
		if rpt, err := conformance.VerifyLifecycle(conformance.DefaultChainWorkload, algo, opts); err != nil {
			fmt.Printf("lifecycle check (%s/%s): FAIL: %v\n", conformance.DefaultChainWorkload, algo, err)
			failed = true
		} else {
			fmt.Printf("lifecycle check (%s/%s): %s, ok\n", conformance.DefaultChainWorkload, algo, rpt)
		}
	}

	// The contention sweep interleaves two tenants' drains through a shared
	// capacity-bounded scheduler: backlog-forced PFS fallbacks and admission
	// waits must be attributed in the stats while every sealed epoch of
	// every tenant restarts digest-identically.
	if *contention {
		algo := algoList[0]
		if rpt, err := conformance.VerifyContention(conformance.DefaultChainWorkload, algo, opts); err != nil {
			fmt.Printf("contention check (%s/%s): FAIL: %v\n", conformance.DefaultChainWorkload, algo, err)
			failed = true
		} else {
			fmt.Printf("contention check (%s/%s): %s, ok\n", conformance.DefaultChainWorkload, algo, rpt)
		}
	}

	// Fault injection runs on the first runnable matrix case.
	if *faults {
		var wl, algo string
		for _, c := range matrix.Cases {
			if !c.Skipped {
				wl, algo = c.Workload, c.Algorithm
				break
			}
		}
		if wl == "" {
			fmt.Println("fault-injection checks: skipped (no runnable case in the matrix)")
		} else if verdicts, err := conformance.VerifyFaultInjection(wl, algo, opts); err != nil {
			fmt.Printf("fault-injection checks (%s/%s): FAIL: %v\n", wl, algo, err)
			failed = true
		} else {
			for _, v := range verdicts {
				if v.Err != nil {
					fmt.Printf("fault %s (%s/%s): FAIL: %v\n", v.Name, wl, algo, v.Err)
					failed = true
				} else {
					fmt.Printf("fault %s (%s/%s): %s\n", v.Name, wl, algo, v.OK)
				}
			}
		}
	}

	fmt.Printf("total %s\n", time.Since(start).Round(time.Millisecond))
	if failed {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
