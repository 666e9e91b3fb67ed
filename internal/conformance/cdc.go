package conformance

// Content-defined-chunking conformance: with CkptPlan.CDC on, a chain must
// (a) actually store changed shards as CDC chunk objects, (b) write fewer
// fresh bytes per capture than the same chain with whole-shard reuse only,
// (c) restart digest-identical from EVERY sealed epoch (chunk objects
// reassemble through their source epochs), and (d) keep the streaming
// encoder's peak within the budget. It runs on two straggler shapes:
// in-place churn, where each capture period rewrites a few elements of a
// multi-chunk state, and insertion shifts, where every byte after the edit
// moves — a fixed page grid would see the whole trailing shard dirty, while
// content boundaries realign one chunk past the edit. The insertion leg
// must also (e) store under half the whole-shard bytes, (f) survive chain
// compaction, and (g) fail attributably when a shard a reused chunk points
// into is damaged.

import (
	"fmt"
	"os"
	"strings"

	"mana/internal/apps"
	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// CDCLegReport summarizes one verified chain shape.
type CDCLegReport struct {
	Epochs       int
	CDCShards    int   // fresh shards stored as CDC chunk objects, chain total
	FreshShards  int   // all fresh shards (chunk objects included), chain total
	FreshBytes   int64 // fresh compressed bytes of the CDC chain
	WholeFreshB  int64 // fresh compressed bytes of the same chain with whole-shard reuse only
	StreamBudget int64
	StreamPeak   int64
}

func (r *CDCLegReport) String() string {
	return fmt.Sprintf("%d epochs, %d/%d fresh shards as cdc chunk objects, %d fresh bytes vs %d whole-shard; peak encode %d B under a %d B budget",
		r.Epochs, r.CDCShards, r.FreshShards, r.FreshBytes, r.WholeFreshB,
		r.StreamPeak, r.StreamBudget)
}

// CDCChainReport summarizes a verified content-defined-chunk sweep, for
// callers that report (ccverify).
type CDCChainReport struct {
	InPlace, Insertion CDCLegReport
}

func (r *CDCChainReport) String() string {
	return fmt.Sprintf("in-place: %s; insertion: %s", &r.InPlace, &r.Insertion)
}

// inPlaceStragglerConfig is the in-place chunk-scale straggler shape: hot
// ranks carry a bulk state of several target-size chunks while each step's
// churn overwrites only a few elements in place, so successive captures
// dirty the header chunk plus the chunk or two the churn window crossed.
// (The registered straggler keeps shards under one chunk, where the differ
// correctly re-anchors to full shards and no chunk object is ever stored.)
func inPlaceStragglerConfig(ranks int) apps.StragglerConfig {
	cfg := apps.StragglerConfig{
		HotRanks:  2,
		ColdSteps: 4,
		HotIters:  60,
		// Cold ranks: 64 KiB of frozen state (exact reuse after warmup).
		StateElems: 8 << 10,
		// Hot ranks: 512 KiB of bulk state; the step loop overwrites 64 B
		// per iteration.
		HotStateElems: 64 << 10,
	}
	if cfg.HotRanks >= ranks {
		cfg.HotRanks = 1
	}
	return cfg
}

// CDCStragglerConfig is the insertion-shifted chunk-scale straggler shape
// shared by the conformance leg and BenchmarkCDCCheckpoint: hot ranks carry
// a multi-chunk bulk state and periodically INSERT an element at an interior
// position, shifting every later byte of the fixed-width snapshot. Whole
// shards and any fixed page grid lose almost the whole trailing shard to the
// shift; content-defined chunks realign right after the edit.
func CDCStragglerConfig(ranks int) apps.StragglerConfig {
	cfg := apps.StragglerConfig{
		HotRanks:  2,
		ColdSteps: 4,
		HotIters:  60,
		// Cold ranks: 64 KiB of frozen state (exact whole-shard reuse).
		StateElems: 8 << 10,
		// Hot ranks: ~2 MiB of bulk state — a few dozen target-size chunks,
		// so a single insertion's damage (one or two chunks) is a small
		// fraction of the shard.
		HotStateElems: 256 << 10, // 2 MiB
		// Insert every iteration so EVERY capture period contains at least
		// one shift, whatever cadence the checkpoint plan realizes.
		InsertEvery: 1,
	}
	if cfg.HotRanks >= ranks {
		cfg.HotRanks = 1
	}
	return cfg
}

func stragglerFactory(cfg apps.StragglerConfig) func(int) rt.App {
	return func(rank int) rt.App { return apps.NewStraggler(cfg, rank) }
}

// VerifyCDCChain runs the content-defined-chunking conformance sweep for one
// algorithm on the in-place and insertion-shifted straggler shapes.
func VerifyCDCChain(algo string, opts Options) (*CDCChainReport, error) {
	o := opts.withDefaults()
	if err := notRunnable(DefaultChainWorkload, algo); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "ckpt-cdc-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rpt := &CDCChainReport{}
	if _, _, err := verifyCDCLeg(&o, algo, "in-place", tmp, stragglerFactory(inPlaceStragglerConfig(o.Ranks)),
		int64(4)<<20, 1, &rpt.InPlace); err != nil {
		return nil, err
	}
	factory := stragglerFactory(CDCStragglerConfig(o.Ranks))
	golden, cdcFS, err := verifyCDCLeg(&o, algo, "insertion", tmp, factory, int64(8)<<20, 2, &rpt.Insertion)
	if err != nil {
		return nil, err
	}

	// Compaction must flatten the chunk chain into a self-contained epoch
	// that still restarts into the golden state.
	epochs, err := cdcFS.Epochs()
	if err != nil {
		return nil, err
	}
	last := epochs[len(epochs)-1]
	newMan, _, err := ckpt.CompactChain(cdcFS, last, nil)
	if err != nil {
		return nil, fmt.Errorf("compacting the cdc chain's epoch %d: %w", last, err)
	}
	if newMan.Epoch != last {
		rep, err := rt.RestartFromStore(baseConfig(&o, algo), cdcFS, newMan.Epoch, factory)
		if err != nil {
			return nil, fmt.Errorf("restart from compacted cdc epoch %d: %w", newMan.Epoch, err)
		}
		if rep.StateDigest != golden {
			return nil, fmt.Errorf("compacted cdc epoch %d diverged: digest %.12s != golden %.12s",
				newMan.Epoch, rep.StateDigest, golden)
		}
		o.Logf("cdc chain compacted into epoch %d: digest ok", newMan.Epoch)
	}

	// Negative leg: damage a shard that a reused chunk points INTO. Restart
	// of the chunk object's epoch must attribute the source epoch, and
	// VerifyStore must attribute the same rank.
	if err := verifyCDCSourceCorruptionAttributed(&o, algo, cdcFS, factory); err != nil {
		return nil, err
	}
	return rpt, nil
}

// verifyCDCLeg runs one chain shape twice — whole-shard reuse, then CDC —
// and checks (a)–(d) into rpt: the CDC chain's mean fresh bytes per capture
// times minShrink must stay under the whole-shard chain's. It returns the
// golden digest and the CDC chain's store.
func verifyCDCLeg(o *Options, algo, shape, tmp string, factory func(int) rt.App,
	streamBudget int64, minShrink float64, rpt *CDCLegReport) (string, *ckpt.FileStore, error) {
	const minEpochs = 3
	label := "cdc " + shape
	goldenRep, err := rt.Run(baseConfig(o, algo), factory)
	if err != nil {
		return "", nil, fmt.Errorf("%s golden run: %w", label, err)
	}
	if !goldenRep.Completed || goldenRep.StateDigest == "" {
		return "", nil, fmt.Errorf("%s golden run produced no digest", label)
	}

	wholeRep, _, err := runChain(o, algo, goldenRep, factory, tmp+"/"+shape+"-whole", minEpochs, true, true, false, netmodel.TierPFS, streamBudget)
	if err != nil {
		return "", nil, err
	}
	cdcRep, cdcFS, err := runChain(o, algo, goldenRep, factory, tmp+"/"+shape+"-cdc", minEpochs, true, true, true, netmodel.TierPFS, streamBudget)
	if err != nil {
		return "", nil, err
	}
	for _, rep := range []*rt.Report{wholeRep, cdcRep} {
		if rep.StateDigest != goldenRep.StateDigest {
			return "", nil, fmt.Errorf("%s chained run diverged from golden: %.12s != %.12s",
				label, rep.StateDigest, goldenRep.StateDigest)
		}
	}

	rpt.StreamBudget = streamBudget
	for _, st := range wholeRep.CheckpointHistory {
		rpt.WholeFreshB += st.FreshBytes
		if st.CDCShards != 0 {
			return "", nil, fmt.Errorf("%s: whole-shard chain reported %d cdc shards", label, st.CDCShards)
		}
	}
	for _, st := range cdcRep.CheckpointHistory {
		rpt.FreshShards += st.FreshShards
		rpt.CDCShards += st.CDCShards
		rpt.FreshBytes += st.FreshBytes
		if st.CDCBytes > st.FreshBytes {
			return "", nil, fmt.Errorf("%s: cdc bytes %d exceed fresh bytes %d (must be a subset)",
				label, st.CDCBytes, st.FreshBytes)
		}
		if st.PeakEncodeBytes > streamBudget {
			return "", nil, fmt.Errorf("%s: capture's encode peak %d exceeds the %d budget",
				label, st.PeakEncodeBytes, streamBudget)
		}
		if st.PeakEncodeBytes > rpt.StreamPeak {
			rpt.StreamPeak = st.PeakEncodeBytes
		}
	}
	if len(cdcRep.CheckpointHistory) < minEpochs || len(wholeRep.CheckpointHistory) < minEpochs {
		return "", nil, fmt.Errorf("%s: only %d cdc / %d whole-shard chained captures (want >= %d)",
			label, len(cdcRep.CheckpointHistory), len(wholeRep.CheckpointHistory), minEpochs)
	}
	if rpt.CDCShards == 0 {
		return "", nil, fmt.Errorf("%s chain stored no cdc chunk objects (%d fresh shards)", label, rpt.FreshShards)
	}
	// Compare MEAN fresh bytes per capture (capture counts may drift between
	// the runs).
	meanWhole := float64(rpt.WholeFreshB) / float64(len(wholeRep.CheckpointHistory))
	meanCDC := float64(rpt.FreshBytes) / float64(len(cdcRep.CheckpointHistory))
	if meanCDC*minShrink >= meanWhole {
		return "", nil, fmt.Errorf("%s: cdc wrote %.0f fresh bytes per capture, not under 1/%g of whole-shard %.0f",
			label, meanCDC, minShrink, meanWhole)
	}
	o.Logf("%s chain: %d chunk-object shards, %.0f fresh B/capture vs %.0f whole-shard", label, rpt.CDCShards, meanCDC, meanWhole)

	// Every sealed epoch must restart into the golden state: a chunk object
	// reassembles through its source epochs byte-identically.
	n, err := restartEverySealed(o, algo, "straggler/"+label, cdcFS, goldenRep.StateDigest, factory)
	if err != nil {
		return "", nil, err
	}
	rpt.Epochs = n
	if n < minEpochs {
		return "", nil, fmt.Errorf("%s: only %d sealed epochs (want >= %d)", label, n, minEpochs)
	}
	if faults, err := ckpt.VerifyStore(cdcFS); err != nil || len(faults) != 0 {
		return "", nil, fmt.Errorf("pristine %s chain did not verify: faults=%v err=%v", label, faults, err)
	}
	return goldenRep.StateDigest, cdcFS, nil
}

// verifyCDCSourceCorruptionAttributed corrupts the stored object a reused
// chunk of the newest CDC shard sources from and asserts both restart and
// VerifyStore attribute the damage.
func verifyCDCSourceCorruptionAttributed(o *Options, algo string, fs *ckpt.FileStore, factory func(int) rt.App) error {
	epochs, err := fs.Epochs()
	if err != nil {
		return err
	}
	var srcEpoch, srcRank, last = -1, -1, -1
	for i := len(epochs) - 1; i >= 0 && srcEpoch < 0; i-- {
		man, err := fs.GetManifest(epochs[i])
		if err != nil {
			return err
		}
		for j := range man.Shards {
			si := &man.Shards[j]
			// A chunk object stored in THIS epoch (not a reused reference)
			// with at least one chunk sourced from an earlier epoch.
			if si.RawFormat != ckpt.RawFormatCDC || si.RefEpoch != man.Epoch {
				continue
			}
			for k := range si.Chunks {
				if si.Chunks[k].SrcEpoch != man.Epoch {
					srcEpoch, srcRank = si.Chunks[k].SrcEpoch, si.Chunks[k].SrcRank
					last = man.Epoch
					break
				}
			}
			if srcEpoch >= 0 {
				break
			}
		}
	}
	if srcEpoch < 0 {
		return fmt.Errorf("cdc chain holds no chunk objects with cross-epoch chunk sources")
	}
	path := fs.ShardPath(srcEpoch, srcRank)
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading cdc chunk source shard: %w", err)
	}
	pristine := append([]byte(nil), blob...)
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	defer os.WriteFile(path, pristine, 0o644)

	_, rerr := rt.RestartFromStore(baseConfig(o, algo), fs, last, factory)
	if rerr == nil {
		return fmt.Errorf("restart from epoch %d succeeded over a corrupted chunk source in epoch %d", last, srcEpoch)
	}
	for _, want := range []string{
		fmt.Sprintf("epoch %d", last),
		fmt.Sprintf("chunk source shard in epoch %d corrupted", srcEpoch),
	} {
		if !strings.Contains(rerr.Error(), want) {
			return fmt.Errorf("cdc restart error %q does not attribute %q", rerr, want)
		}
	}
	faults, err := ckpt.VerifyStore(fs)
	if err != nil {
		return err
	}
	if len(faults) == 0 {
		return fmt.Errorf("store verify missed the corrupted cdc chunk source shard")
	}
	for _, f := range faults {
		if f.Rank != srcRank {
			return fmt.Errorf("cdc source fault misattributed: %+v (want rank %d)", f, srcRank)
		}
	}
	o.Logf("cdc chunk source corruption attributed: rank %d source epoch %d (chunk object in epoch %d)",
		srcRank, srcEpoch, last)
	return nil
}
