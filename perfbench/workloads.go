package main

import (
	"fmt"
	"math/rand"
	"sort"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/conformance"
	"mana/internal/rt"
)

// reuse is the shard-reuse mode of a workload's captures: none, or
// content-defined chunks (which also reuses unchanged shards whole). Page
// deltas are never used.
type reuse int

const (
	reuseNone reuse = iota
	reuseCDC
)

// capturePlan is the one place a workload's reuse mode becomes a CkptPlan:
// a synchronous, step-indexed capture that exits the job once the epoch is
// sealed, so every capture of a chain is its own deterministic run.
func capturePlan(r reuse, store ckpt.Store, step int) *rt.CkptPlan {
	return &rt.CkptPlan{
		AtStep:      step,
		Mode:        ckpt.ExitAfterCapture,
		Store:       store,
		Incremental: r != reuseNone,
		CDC:         r == reuseCDC,
	}
}

// workload is one job shape with its capture schedule. A cycle of the
// measured loop runs plainRuns uninterrupted jobs, then one chain of
// captures at the scheduled steps into a fresh store, then restarts from
// the chain's newest epoch.
type workload struct {
	name, why string
	ranks     int
	ppn       int
	reuse     reuse
	// factory builds the per-rank apps; the seed may fill their state.
	factory func(seed int64) func(rank int) rt.App
	// steps is the job's length in rank-0 steps; see schedule for how the
	// capture steps are drawn from [firstStep, steps-1].
	steps, firstStep int
	captures         int // epochs per chain
	restarts         int // restarts per chain
	plainRuns        int // uninterrupted runs per cycle
	// memStore keeps the chain in a ckpt.MemStore instead of a FileStore.
	memStore bool
}

// schedule draws a chain's capture steps from the seed: `captures` distinct
// steps, ascending, the last at steps-1 so every restart replays the same
// short tail of the job, the others drawn from [firstStep, steps-1). Only
// step-indexed triggers are used, so the same seed always gives the same
// epochs.
func (w *workload) schedule(seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	picked := rng.Perm(w.steps - 1 - w.firstStep)[:w.captures-1]
	out := make([]int, 0, w.captures)
	for _, p := range picked {
		out = append(out, w.firstStep+p)
	}
	sort.Ints(out)
	return append(out, w.steps-1)
}

func (w *workload) config() rt.Config {
	return rt.Config{Ranks: w.ranks, PPN: w.ppn, Params: benchParams(), Algorithm: rt.AlgoCC}
}

// noise returns n float64 values of seeded xorshift noise with five
// significant decimal digits each: it compresses like real simulation
// state (flate stores a bit over half of it) instead of a periodic fill
// that flate collapses.
func noise(seed int64, rank, n int) []float64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(rank+1)*0xbf58476d1ce4e5b9
	if s == 0 {
		s = 1
	}
	out := make([]float64, n)
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = float64(s%100000) / 100000
	}
	return out
}

const mib = 1 << 20

var workloads = []*workload{
	{
		name: "full-rewrite",
		why:  "non-incremental flate captures of 8 noise-filled ranks: snapshot, hash, codec and store I/O carry every byte; CDC is idle",
		// Every rank is hot and rewrites its whole state on each capture.
		ranks: 8, ppn: 4, reuse: reuseNone,
		factory: func(seed int64) func(int) rt.App {
			cfg := apps.StragglerConfig{HotRanks: 8, ColdSteps: 1, HotIters: 40, StateElems: 1}
			return func(rank int) rt.App {
				a := apps.NewStraggler(cfg, rank)
				// Sizes step evenly over 0.5-2 MiB, 10 MiB in all. They
				// do not depend on the seed: which rank is big decides
				// how evenly the capture fan-out splits the work.
				bytes := mib/2 + (3*mib/2)*rank/7
				a.State = noise(seed, rank, bytes/8)
				return a
			}
		},
		steps: 40, firstStep: 1, captures: 8, restarts: 8, plainRuns: 4,
	},
	{
		name:  "cdc-insert",
		why:   "2 hot ranks insert into 2 MiB each, 2 cold ranks frozen; CDC chain 100 deep: hash, chunk index and CDC restart merge dominate, codec idle",
		ranks: 4, ppn: 4, reuse: reuseCDC,
		// The seed jitters only the schedule here. Every insertion lands in
		// the first ~150 KiB of a hot rank's state, so the stored bytes hinge
		// on the sizes of the two or three content-defined chunks there:
		// seeding the content moved stored_B_per_B between 0.051 and 0.103
		// across seeds, while the schedule moves it by about 1%. The state
		// keeps the straggler's own rank-seeded noise.
		factory: func(int64) func(int) rt.App {
			cfg := conformance.CDCStragglerConfig(4)
			cfg.HotIters = 150
			return func(rank int) rt.App { return apps.NewStraggler(cfg, rank) }
		},
		steps: 150, firstStep: 1, captures: 100, restarts: 32, plainRuns: 4,
	},
	{
		name:  "sim-vasp",
		why:   "VASP proxy, 128 ranks under CC: the simulator and the CC wrapper do the work; captures hold tiny per-rank state",
		ranks: 128, ppn: 32, reuse: reuseNone,
		factory: func(int64) func(int) rt.App {
			f, err := apps.Factory("vasp", vaspScale)
			if err != nil {
				panic(fmt.Sprintf("vasp factory: %v", err)) // the name is a constant
			}
			return f
		},
		// 188 iterations of 5 steps; captures fall in the last tenth so a
		// restart replays only the job's tail. The chain lives in memory:
		// a capture here is 128 tiny shards, and on a FileStore its time
		// would be 128 file creates, whose time swung by a third between
		// runs on a shared filesystem. Store I/O is measured by the
		// other two workloads.
		steps: 940, firstStep: 846, captures: 3, restarts: 4, plainRuns: 1, memStore: true,
	},
}

// vaspScale shortens the VASP proxy to 188 iterations (about 0.2 M MPI
// calls at 128 ranks) so a run holds several jobs.
const vaspScale = 0.002

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}
