package ckpt

// Tests for stores that span an identity-hash switch: a checked-in store
// sealed while FNV-1a was the only identity hash, extended with XXH64
// epochs, compacted and collected.

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// fixtureText fills n bytes over a four-letter alphabet from a xorshift64
// stream: two bits of entropy per byte keep a stored fixture small, yet every
// 16-byte gear window still varies, so the chunker finds content-defined cut
// points at its usual density.
func fixtureText(n int, seed uint64) []byte {
	b := make([]byte, n)
	s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range b {
		if i%32 == 0 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
		}
		b[i] = "acgt"[s>>(2*(i%32))&3]
	}
	return b
}

// fnvFixtureImage is the 3-rank job image of epoch e of the FNV-era CDC
// fixture (testdata/v5-fnv-cdc-store). Epoch 1 overwrites 40 bytes near
// the end of rank 1's state; ranks 0 and 2 never change.
func fnvFixtureImage(e int) *JobImage {
	ji := &JobImage{Algorithm: "cc", Ranks: 3, PPN: 3, CaptureVT: 1.5 + float64(e), Images: make([]RankImage, 3)}
	for r := range ji.Images {
		n := 24 << 10
		if r == 1 {
			n = 160 << 10
		}
		app := fixtureText(n, uint64(r)+1)
		if e >= 1 && r == 1 {
			copy(app[len(app)-16<<10:], fixtureText(40, 99))
		}
		ji.Images[r] = RankImage{
			Rank:    r,
			Desc:    Descriptor{Kind: ParkPreCollective, Coll: &CollDesc{Kind: 1, Bench: true, VirtSize: 8}},
			App:     app,
			Proto:   []byte{byte(r)},
			ClockVT: float64(e) + float64(r)/10,
		}
	}
	return ji
}

// copyFixtureStore copies a checked-in FileStore fixture into a scratch
// directory, so tests can commit on top of it without touching testdata.
func copyFixtureStore(t *testing.T, src string) *FileStore {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return &FileStore{Root: dst}
}

// TestFNVEraCDCStoreMixedChain drives a store sealed before identity hashes
// were selectable (testdata/v5-fnv-cdc-store: fnvFixtureImage's epochs 0
// and 1, every entry FNV-1a, rank 1 of epoch 1 a CDC object reusing epoch
// 0's chunks) through the hash switch:
//
//   - the FNV-era chain restarts byte-identical and verifies clean;
//   - the first XXH64 epoch on top rewrites every rank in full once: no
//     whole-shard reference and no chunk reference crosses hash ids;
//   - the epoch after that dedups again (references plus a CDC object);
//   - compacting both the FNV-era and the XXH64 CDC epoch, then GC, leaves
//     survivors that verify and restart byte-identical, each still under
//     its own hash.
func TestFNVEraCDCStoreMixedChain(t *testing.T) {
	store := copyFixtureStore(t, "testdata/v5-fnv-cdc-store")
	img := []*JobImage{fnvFixtureImage(0), fnvFixtureImage(1)}
	var mans []*Manifest
	for e := range img {
		man, err := store.GetManifest(e)
		if err != nil {
			t.Fatal(err)
		}
		if man.Version != ManifestV5 {
			t.Fatalf("fixture epoch %d is manifest v%d, want v5", e, man.Version)
		}
		for _, si := range man.Shards {
			if si.HashID != HashFNV1a {
				t.Fatalf("fixture epoch %d rank %d declares hash %d", e, si.Rank, si.HashID)
			}
		}
		got, err := LoadJobImage(store, e)
		if err != nil {
			t.Fatalf("FNV-era epoch %d no longer loads: %v", e, err)
		}
		sameImages(t, img[e], got)
		mans = append(mans, man)
	}
	if si := shardOf(t, mans[1], 1); si.RawFormat != RawFormatCDC {
		t.Fatalf("fixture epoch 1 rank 1 is format %d, want a cdc object", si.RawFormat)
	}
	if faults, err := VerifyStore(store); err != nil || len(faults) != 0 {
		t.Fatalf("FNV-era store did not verify: faults=%v err=%v", faults, err)
	}

	// Epoch 2 changes only rank 2, yet every rank is written in full once:
	// an FNV-1a identity cannot be compared with an XXH64 one, so neither a
	// whole-shard reference nor a chunk reference may cross the switch.
	img2 := fnvFixtureImage(1)
	copy(img2.Images[2].App[100:], "rank two moved on")
	man2, st2 := commitCDC(t, store, 2, mans[1], img2)
	if st2.FreshShards != 3 || st2.ReusedShards != 0 || st2.CDCShards != 0 {
		t.Fatalf("first XXH64 epoch over an FNV parent: %+v, want every rank fresh and full", st2)
	}
	for _, si := range man2.Shards {
		if si.HashID != HashXXH64 || si.RefEpoch != 2 || si.RawFormat != RawFormatChunked {
			t.Fatalf("epoch 2 rank %d: hash %d, ref epoch %d, format %d", si.Rank, si.HashID, si.RefEpoch, si.RawFormat)
		}
		for k, c := range si.Chunks {
			if c.SrcEpoch != 2 {
				t.Fatalf("epoch 2 rank %d chunk %d reuses epoch %d across hash ids", si.Rank, k, c.SrcEpoch)
			}
		}
	}

	// Epoch 3: the XXH64 chain dedups again — untouched ranks are
	// references, and an in-place edit of rank 1 is a CDC object reusing
	// epoch 2's chunks.
	img3 := fnvFixtureImage(1)
	copy(img3.Images[2].App[100:], "rank two moved on")
	copy(img3.Images[1].App[len(img3.Images[1].App)-8<<10:], "rank one edits again")
	man3, st3 := commitCDC(t, store, 3, man2, img3)
	if st3.ReusedShards != 2 || st3.FreshShards != 1 || st3.CDCShards != 1 {
		t.Fatalf("second XXH64 epoch did not dedup: %+v", st3)
	}
	var reused int
	for _, c := range shardOf(t, man3, 1).Chunks {
		switch c.SrcEpoch {
		case 2:
			reused++
		case 3:
		default:
			t.Fatalf("epoch 3 chunk sourced from FNV-era epoch %d", c.SrcEpoch)
		}
	}
	if reused == 0 {
		t.Fatal("epoch 3's cdc object reuses no epoch 2 chunk")
	}
	for e, want := range map[int]*JobImage{2: img2, 3: img3} {
		got, err := LoadJobImage(store, e)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, want, got)
	}

	// Compaction over the mixed chain: the FNV-era CDC epoch flattens
	// under FNV-1a, the XXH64 one under XXH64 — every entry keeps the hash
	// its identities were computed with. GC then reclaims everything else.
	compacted := map[int]*JobImage{}
	for _, c := range []struct {
		src, hashID int
		img         *JobImage
	}{{1, HashFNV1a, img[1]}, {3, HashXXH64, img3}} {
		newMan, _, err := CompactChain(store, c.src, nil)
		if err != nil {
			t.Fatalf("compacting epoch %d: %v", c.src, err)
		}
		for _, si := range newMan.Shards {
			if si.HashID != c.hashID || si.RefEpoch != newMan.Epoch || si.RawFormat == RawFormatCDC {
				t.Fatalf("compacted epoch %d rank %d: hash %d, ref epoch %d, format %d",
					c.src, si.Rank, si.HashID, si.RefEpoch, si.RawFormat)
			}
		}
		compacted[newMan.Epoch] = c.img
	}
	if _, err := GCStore(store, 2); err != nil {
		t.Fatal(err)
	}
	eps, err := store.Epochs()
	if err != nil || len(eps) != 2 {
		t.Fatalf("GC left epochs %v (err %v), want the two compacted ones", eps, err)
	}
	for _, e := range eps {
		want := compacted[e]
		if want == nil {
			t.Fatalf("GC kept epoch %d, not a compacted one", e)
		}
		got, err := LoadJobImage(store, e)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, want, got)
	}
	if faults, err := VerifyStore(store); err != nil || len(faults) != 0 {
		t.Fatalf("mixed chain did not verify after compaction and GC: faults=%v err=%v", faults, err)
	}
}
