// Command ccimg inspects and verifies checkpoint images and stores — the
// restart analog of `file`/`readelf` for MANA images.
//
//	ccimg info [-v] [-json] <image|store-dir>
//	                                     job geometry, park census, shard
//	                                     table / epoch chain summary
//	                                     (-json: machine-readable manifest
//	                                     or chain output for scripts)
//	ccimg verify <image|store-dir>       per-shard integrity check, chain
//	                                     reference resolution (exit 1 on fault)
//	ccimg extract -rank N [-epoch E] [-o out.shard] <image|store-dir>
//	                                     decode one rank's shard without the job
//	ccimg gc -keep N <store-dir>         delete dead epochs (liveness traced
//	                                     through shard references) and sweep
//	                                     aborted-commit debris
//	ccimg compact [-epoch E] <store-dir> rewrite an epoch's chain into a fresh
//	                                     self-contained epoch (then gc -keep 1
//	                                     reclaims the old chain)
//
// Bare `ccimg [-v] <path>` is shorthand for `ccimg info`. A directory
// argument is treated as a checkpoint store (one epoch per capture,
// incremental shard references resolved through the chain); a file argument
// as an encoded image. Both the v2 sharded format and legacy v1 monolithic
// images are accepted; shard-level operations degrade gracefully on v1
// (verify checks the single whole-image checksum, extract decodes the whole
// image first).
package main

import (
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
)

func main() {
	args := os.Args[1:]
	cmd := "info"
	if len(args) > 0 {
		switch args[0] {
		case "info", "verify", "extract", "gc", "compact":
			cmd, args = args[0], args[1:]
		}
	}
	var err error
	switch cmd {
	case "info":
		err = runInfo(args)
	case "verify":
		err = runVerify(args)
	case "extract":
		err = runExtract(args)
	case "gc":
		err = runGC(args)
	case "compact":
		err = runCompact(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccimg:", err)
		os.Exit(1)
	}
}

// target resolves the path argument: a directory opens as a store, a file
// loads as a raw encoded image.
type target struct {
	path  string
	blob  []byte          // image bytes (file targets)
	store *ckpt.FileStore // non-nil for store directories
}

// readTarget classifies and loads the single path argument.
func readTarget(fs *flag.FlagSet, usage string) (*target, error) {
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage:", usage)
		os.Exit(2)
	}
	path := fs.Arg(0)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		store, err := ckpt.NewFileStore(path)
		if err != nil {
			return nil, err
		}
		return &target{path: path, store: store}, nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &target{path: path, blob: blob}, nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	verbose := fs.Bool("v", false, "per-rank detail")
	asJSON := fs.Bool("json", false, "machine-readable manifest/chain output")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg info [-v] [-json] <image-file|store-dir>")
	if err != nil {
		return err
	}
	if *asJSON {
		if tgt.store != nil {
			return storeInfoJSON(tgt.store, tgt.path)
		}
		return imageInfoJSON(tgt.blob, tgt.path)
	}
	if tgt.store != nil {
		return storeInfo(tgt.store, tgt.path, *verbose)
	}
	blob, path := tgt.blob, tgt.path
	img, err := ckpt.DecodeJobImage(blob)
	if err != nil {
		return err
	}
	man, _ := ckpt.DecodeManifest(blob) // nil for v1 images

	fmt.Printf("checkpoint image: %s\n", path)
	format := "v1 (monolithic)"
	if man != nil {
		format = fmt.Sprintf("v2 (sharded, %d shards)", len(man.Shards))
	}
	fmt.Printf("  format:      %s\n", format)
	fmt.Printf("  algorithm:   %s\n", img.Algorithm)
	fmt.Printf("  ranks:       %d (%d per node, %d nodes)\n",
		img.Ranks, img.PPN, (img.Ranks+img.PPN-1)/img.PPN)
	fmt.Printf("  captured at: vt=%.6fs\n", img.CaptureVT)
	fmt.Printf("  total bytes: %d", img.TotalBytes())
	if img.PaddedBytesPerRank > 0 {
		fmt.Printf(" (padded to %d per rank)", img.PaddedBytesPerRank)
	}
	fmt.Println()
	if man != nil {
		var comp, raw int64
		for _, s := range man.Shards {
			comp += s.Size
			raw += s.RawSize
		}
		ratio := 0.0
		if raw > 0 {
			ratio = float64(comp) / float64(raw)
		}
		fmt.Printf("  shard data:  %d bytes compressed from %d (ratio %.2f)\n", comp, raw, ratio)
	}

	parks := map[ckpt.ParkKind]int{}
	var inflight, inflightBytes, pendingRecvs int
	for i := range img.Images {
		ri := &img.Images[i]
		parks[ri.Desc.Kind]++
		inflight += len(ri.Inflight)
		for _, m := range ri.Inflight {
			inflightBytes += len(m.Data)
		}
		pendingRecvs += len(ri.Desc.Recvs)
	}
	fmt.Printf("  park kinds:  ")
	for _, k := range []ckpt.ParkKind{
		ckpt.ParkPreCollective, ckpt.ParkInBarrier, ckpt.ParkInWait,
		ckpt.ParkBoundary, ckpt.ParkDone,
	} {
		if parks[k] > 0 {
			fmt.Printf("%s:%d ", k, parks[k])
		}
	}
	fmt.Println()
	fmt.Printf("  p2p drain:   %d in-flight messages (%d bytes), %d pending receives\n",
		inflight, inflightBytes, pendingRecvs)

	if *verbose {
		fmt.Println()
		for i := range img.Images {
			printRank(&img.Images[i])
		}
	}
	return nil
}

func printRank(ri *ckpt.RankImage) {
	fmt.Printf("rank %4d: park=%-14s app=%dB proto=%dB clock=%.6fs\n",
		ri.Rank, ri.Desc.Kind, len(ri.App), len(ri.Proto), ri.ClockVT)
	if ri.Desc.Coll != nil {
		c := ri.Desc.Coll
		if c.Bench || c.VirtSize > 0 {
			fmt.Printf("           pending collective: %v on comm vid %d (root %d, bench size %d)\n",
				netmodel.CollKind(c.Kind), c.CommVID, c.Root, c.VirtSize)
		} else {
			fmt.Printf("           pending collective: %v on comm vid %d (root %d, bufs %q/%q)\n",
				netmodel.CollKind(c.Kind), c.CommVID, c.Root, c.InBufID, c.OutBufID)
		}
	}
	for _, rd := range ri.Desc.Recvs {
		fmt.Printf("           pending recv: comm vid %d src %d tag %d -> %s[%d:%d]\n",
			rd.CommVID, rd.Src, rd.Tag, rd.BufID, rd.Off, rd.Off+rd.Len)
	}
	for _, m := range ri.Inflight {
		fmt.Printf("           in-flight: comm %d from %d tag %d (%d bytes)\n",
			m.CommID, m.SrcComm, m.Tag, len(m.Data))
	}
}

// JSON schema for -json output. Checksums are hex strings: uint64 values
// above 2^53 silently lose precision in JSON consumers that parse numbers
// as float64 (jq, JavaScript), which a checksum must never do.
type shardJSON struct {
	Rank     int     `json:"rank"`
	Offset   int64   `json:"offset,omitempty"`
	Size     int64   `json:"size"`
	RawSize  int64   `json:"raw_size"`
	Checksum string  `json:"checksum"`
	RefEpoch *int    `json:"ref_epoch,omitempty"` // v3 store shards only
	ClockVT  float64 `json:"clock_vt,omitempty"`
	RawSum   string  `json:"raw_sum,omitempty"`

	// RawFormat distinguishes gob (0), chunked (1), and content-defined
	// chunk (3) stored objects.
	RawFormat int `json:"raw_format,omitempty"`
	// Hash names the identity hash behind checksum and raw_sum ("fnv1a" or
	// "xxh64"; one chain may mix both), Codec the stored object's codec
	// ("flate" or "none"). Store shards only.
	Hash  string `json:"hash,omitempty"`
	Codec string `json:"codec,omitempty"`
}

type epochJSON struct {
	Epoch              int         `json:"epoch"`
	Parent             int         `json:"parent"`
	Tier               string      `json:"tier"`
	Algorithm          string      `json:"algorithm"`
	Ranks              int         `json:"ranks"`
	PPN                int         `json:"ppn"`
	CaptureVT          float64     `json:"capture_vt"`
	PaddedBytesPerRank int64       `json:"padded_bytes_per_rank,omitempty"`
	FreshShards        int         `json:"fresh_shards"`
	ReusedShards       int         `json:"reused_shards"`
	FreshBytes         int64       `json:"fresh_bytes"`
	ReusedBytes        int64       `json:"reused_bytes"`
	Shards             []shardJSON `json:"shards"`
}

type infoJSON struct {
	Kind               string         `json:"kind"` // "image" or "store"
	Path               string         `json:"path"`
	Format             string         `json:"format,omitempty"` // image files: "v1" or "v2"
	Algorithm          string         `json:"algorithm,omitempty"`
	Ranks              int            `json:"ranks,omitempty"`
	PPN                int            `json:"ppn,omitempty"`
	CaptureVT          float64        `json:"capture_vt,omitempty"`
	TotalBytes         int64          `json:"total_bytes,omitempty"`
	PaddedBytesPerRank int64          `json:"padded_bytes_per_rank,omitempty"`
	Parks              map[string]int `json:"parks,omitempty"`
	InflightMessages   int            `json:"inflight_messages,omitempty"`
	InflightBytes      int            `json:"inflight_bytes,omitempty"`
	PendingRecvs       int            `json:"pending_recvs,omitempty"`
	Shards             []shardJSON    `json:"shards,omitempty"` // v2 images
	Epochs             []epochJSON    `json:"epochs,omitempty"` // stores
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// imageInfoJSON renders one encoded image's manifest machine-readably.
func imageInfoJSON(blob []byte, path string) error {
	img, err := ckpt.DecodeJobImage(blob)
	if err != nil {
		return err
	}
	out := infoJSON{
		Kind: "image", Path: path, Format: "v1",
		Algorithm: img.Algorithm, Ranks: img.Ranks, PPN: img.PPN,
		CaptureVT: img.CaptureVT, TotalBytes: img.TotalBytes(),
		PaddedBytesPerRank: img.PaddedBytesPerRank,
		Parks:              map[string]int{},
	}
	for i := range img.Images {
		ri := &img.Images[i]
		out.Parks[ri.Desc.Kind.String()]++
		out.InflightMessages += len(ri.Inflight)
		for _, m := range ri.Inflight {
			out.InflightBytes += len(m.Data)
		}
		out.PendingRecvs += len(ri.Desc.Recvs)
	}
	if man, err := ckpt.DecodeManifest(blob); err == nil {
		out.Format = "v2"
		for _, si := range man.Shards {
			out.Shards = append(out.Shards, shardJSON{
				Rank: si.Rank, Offset: si.Offset, Size: si.Size,
				RawSize: si.RawSize, Checksum: fmt.Sprintf("%016x", si.Checksum),
			})
		}
	}
	return emitJSON(&out)
}

// storeInfoJSON renders a store's whole epoch chain machine-readably.
func storeInfoJSON(store *ckpt.FileStore, path string) error {
	epochs, err := store.Epochs()
	if err != nil {
		return err
	}
	out := infoJSON{Kind: "store", Path: path, Epochs: []epochJSON{}}
	for _, e := range epochs {
		man, err := store.GetManifest(e)
		if err != nil {
			return err
		}
		ej := epochJSON{
			Epoch: man.Epoch, Parent: man.Parent,
			Tier:      netmodel.StorageTier(man.Tier).String(),
			Algorithm: man.Algorithm, Ranks: man.Ranks, PPN: man.PPN,
			CaptureVT:          man.CaptureVT,
			PaddedBytesPerRank: man.PaddedBytesPerRank,
			Shards:             []shardJSON{},
		}
		for _, si := range man.Shards {
			ref := si.RefEpoch
			sj := shardJSON{
				Rank: si.Rank, Size: si.Size, RawSize: si.RawSize,
				Checksum: fmt.Sprintf("%016x", si.Checksum),
				RefEpoch: &ref, ClockVT: si.ClockVT,
				RawSum:    fmt.Sprintf("%016x", si.RawSum),
				RawFormat: si.RawFormat,
				Hash:      ckpt.HashName(si.HashID),
				Codec:     ckpt.CodecName(si.CodecID),
			}
			ej.Shards = append(ej.Shards, sj)
			if si.RefEpoch == man.Epoch {
				ej.FreshShards++
				ej.FreshBytes += si.Size
			} else {
				ej.ReusedShards++
				ej.ReusedBytes += si.Size
			}
		}
		out.Epochs = append(out.Epochs, ej)
	}
	return emitJSON(&out)
}

// storeInfo renders a checkpoint store's epoch chain.
func storeInfo(store *ckpt.FileStore, path string, verbose bool) error {
	epochs, err := store.Epochs()
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint store: %s (%d sealed epochs)\n", path, len(epochs))
	if len(epochs) == 0 {
		return nil
	}
	fmt.Printf("%-7s %-7s %-6s %10s %7s %7s %12s %12s\n",
		"EPOCH", "PARENT", "RANKS", "CAPTURE-VT", "FRESH", "REUSED", "FRESH-B", "REUSED-B")
	for _, e := range epochs {
		man, err := store.GetManifest(e)
		if err != nil {
			return err
		}
		fresh, reused := 0, 0
		var freshB, reusedB int64
		for _, si := range man.Shards {
			if si.RefEpoch == man.Epoch {
				fresh++
				freshB += si.Size
			} else {
				reused++
				reusedB += si.Size
			}
		}
		parent := "-"
		if man.Parent >= 0 {
			parent = fmt.Sprint(man.Parent)
		}
		fmt.Printf("%-7d %-7s %-6d %9.4fs %7d %7d %12d %12d\n",
			man.Epoch, parent, man.Ranks, man.CaptureVT, fresh, reused, freshB, reusedB)
		if verbose {
			for _, si := range man.Shards {
				loc := "fresh"
				if si.RefEpoch != man.Epoch {
					loc = fmt.Sprintf("ref epoch %d", si.RefEpoch)
				}
				fmt.Printf("    rank %4d: %s, %dB (raw %dB), clock=%.6fs\n",
					si.Rank, loc, si.Size, si.RawSize, si.ClockVT)
			}
		}
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg verify <image-file|store-dir>")
	if err != nil {
		return err
	}
	if tgt.store != nil {
		return verifyStore(tgt.store, tgt.path)
	}
	blob, path := tgt.blob, tgt.path
	faults, err := ckpt.VerifyImage(blob)
	if err != nil {
		return err
	}
	if man, err := ckpt.DecodeManifest(blob); err == nil {
		fmt.Printf("%s: %d shards\n", path, len(man.Shards))
	} else {
		fmt.Printf("%s: v1 image (single checksum)\n", path)
	}
	if len(faults) == 0 {
		fmt.Println("all shards verify: ok")
		return nil
	}
	for _, f := range faults {
		if f.Rank < 0 {
			fmt.Printf("image FAULT: %v\n", f.Err)
		} else {
			fmt.Printf("rank %d shard FAULT: %v\n", f.Rank, f.Err)
		}
	}
	return fmt.Errorf("%d shard(s) corrupted", len(faults))
}

// verifyStore checks every sealed epoch's shards (through the reference
// chain) and attributes faults per epoch and rank.
func verifyStore(store *ckpt.FileStore, path string) error {
	epochs, err := store.Epochs()
	if err != nil {
		return err
	}
	faults, err := ckpt.VerifyStore(store)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d sealed epochs\n", path, len(epochs))
	if len(faults) == 0 {
		fmt.Println("all epochs verify: ok")
		return nil
	}
	for _, f := range faults {
		if f.Rank < 0 {
			fmt.Printf("epoch %d FAULT: %v\n", f.Epoch, f.Err)
		} else {
			fmt.Printf("epoch %d rank %d (bytes in epoch %d) FAULT: %v\n", f.Epoch, f.Rank, f.RefEpoch, f.Err)
		}
	}
	return fmt.Errorf("%d fault(s) in the chain", len(faults))
}

// runGC reclaims a store's dead epochs: everything not reachable from the
// newest -keep sealed manifests through their shard references, plus
// unsealed (aborted-commit) debris.
func runGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	keep := fs.Int("keep", 1, "sealed epochs to retain (plus everything they reference)")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg gc [-keep N] <store-dir>")
	if err != nil {
		return err
	}
	if tgt.store == nil {
		return fmt.Errorf("gc needs a store directory, not an image file")
	}
	st, err := ckpt.GCStore(tgt.store, *keep)
	if err != nil {
		return err
	}
	fmt.Printf("%s: kept epochs %v\n", tgt.path, st.LiveEpochs)
	fmt.Printf("reclaimed %d bytes: %d dead epoch(s), %d shard(s), %d unsealed debris file(s)\n",
		st.ReclaimedBytes, st.DeletedEpochs, st.DeletedShards, st.SweptObjects)
	return nil
}

// runCompact rewrites one epoch's resolved chain into a fresh
// self-contained epoch (verified byte-identical copies, restart digest
// unchanged); the old chain becomes reclaimable by gc.
func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	epoch := fs.Int("epoch", -1, "epoch to compact (-1 = latest)")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg compact [-epoch E] <store-dir>")
	if err != nil {
		return err
	}
	if tgt.store == nil {
		return fmt.Errorf("compact needs a store directory, not an image file")
	}
	e := *epoch
	if e < 0 {
		if e, err = ckpt.LatestEpoch(tgt.store); err != nil {
			return err
		}
	}
	man, st, err := ckpt.CompactChain(tgt.store, e, nil)
	if err != nil {
		return err
	}
	if st == nil {
		fmt.Printf("%s: epoch %d is already self-contained, nothing to do\n", tgt.path, e)
		return nil
	}
	fmt.Printf("%s: compacted epoch %d into self-contained epoch %d (%d shards, %d bytes)\n",
		tgt.path, e, man.Epoch, st.FreshShards, st.FreshBytes)
	fmt.Printf("run `ccimg gc -keep 1 %s` to reclaim the old chain\n", tgt.path)
	return nil
}

func runExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	rank := fs.Int("rank", 0, "rank whose shard to extract")
	epoch := fs.Int("epoch", -1, "store epoch to extract from (-1 = latest; stores only)")
	out := fs.String("o", "", "write the decoded rank image (gob) to this file")
	fs.Parse(args)
	tgt, err := readTarget(fs, "ccimg extract -rank N [-epoch E] [-o out] <image-file|store-dir>")
	if err != nil {
		return err
	}
	var ri *ckpt.RankImage
	if tgt.store != nil {
		e := *epoch
		if e < 0 {
			if e, err = ckpt.LatestEpoch(tgt.store); err != nil {
				return err
			}
		}
		if ri, err = ckpt.ExtractRankFromStore(tgt.store, e, *rank); err != nil {
			return err
		}
	} else if ri, err = ckpt.ExtractRank(tgt.blob, *rank); err != nil {
		return err
	}
	printRank(ri)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := gob.NewEncoder(f).Encode(ri); err != nil {
			//lint:allow closecheck encode already failed; its error is the one to surface
			f.Close()
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Printf("wrote decoded rank %d image to %s\n", *rank, *out)
	}
	return nil
}
