package ckpt

// Tests for raw format 3 (content-defined chunks): chunk-table invariants,
// commit-time dedup against the chain's chunk index (including across an
// insertion shift and across ranks), codec selection, corruption
// attribution through chunk sources, and GC/compaction round trips.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"mana/internal/netmodel"
)

// noisyBytes fills n bytes from a xorshift64 stream: content-rich data with
// plenty of gear cut candidates (a periodic fill would starve the chunker).
func noisyBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
	return b
}

// cdcImage builds an n-rank image whose per-rank app state spans many target
// chunks of pseudo-random content.
func cdcImage(n int, seed uint64) *JobImage {
	ji := &JobImage{Algorithm: "cc", Ranks: n, PPN: 2, CaptureVT: 1.5, Images: make([]RankImage, n)}
	for r := 0; r < n; r++ {
		ji.Images[r] = RankImage{
			Rank:    r,
			Desc:    Descriptor{Kind: ParkPreCollective, Coll: &CollDesc{Kind: 1, Bench: true, VirtSize: 8}},
			App:     noisyBytes(1<<20+r*64, seed+uint64(r)*977),
			Proto:   []byte{byte(seed), byte(r)},
			ClockVT: 1.0 + float64(r)/10,
		}
	}
	return ji
}

// commitCDC hashes with a chunk table and commits, the exact sequence the
// coordinator runs with CDC on.
func commitCDC(t *testing.T, store Store, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats) {
	t.Helper()
	sums, err := HashCaptureCDC(img)
	if err != nil {
		t.Fatal(err)
	}
	man, st, err := CommitStreamed(store, epoch, parent, img, sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	return man, st
}

func shardOf(t *testing.T, man *Manifest, rank int) *ShardInfo {
	t.Helper()
	for i := range man.Shards {
		if man.Shards[i].Rank == rank {
			return &man.Shards[i]
		}
	}
	t.Fatalf("rank %d not in manifest for epoch %d", rank, man.Epoch)
	return nil
}

// insertAt returns b with extra spliced in at off (an insertion edit: every
// later byte shifts).
func insertAt(b []byte, off int, extra []byte) []byte {
	out := make([]byte, 0, len(b)+len(extra))
	out = append(out, b[:off]...)
	out = append(out, extra...)
	return append(out, b[off:]...)
}

// TestChunkTableInvariants: the chunk table produced by the streaming
// chunker covers the raw stream exactly, respects the size bounds, and
// records per-chunk CRC and identity-hash sums that match the bytes.
func TestChunkTableInvariants(t *testing.T) {
	img := cdcImage(1, 7)
	ri := &img.Images[0]
	sum, size, chunks, err := hashShardClocklessCDC(ri)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantSize, err := hashShardClockless(ri)
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSum || size != wantSize {
		t.Fatalf("chunking pass changed the stream identity: %x/%d want %x/%d", sum, size, wantSum, wantSize)
	}
	if len(chunks) < 8 {
		t.Fatalf("1 MiB of noise produced only %d chunks", len(chunks))
	}
	var raw bytes.Buffer
	if err := writeShardRaw(&raw, ri, true); err != nil {
		t.Fatal(err)
	}
	stream := raw.Bytes()
	if int64(len(stream)) != size {
		t.Fatalf("raw stream %d bytes, identity says %d", len(stream), size)
	}
	var off int64
	for k, c := range chunks {
		if c.Len < 1 || c.Len > CDCMaxChunkBytes {
			t.Fatalf("chunk %d length %d out of bounds", k, c.Len)
		}
		if c.Len < CDCMinChunkBytes && k != len(chunks)-1 {
			t.Fatalf("interior chunk %d under the minimum: %d", k, c.Len)
		}
		span := stream[off : off+c.Len]
		if got := crc32.Checksum(span, crcTable); got != c.CRC {
			t.Fatalf("chunk %d crc %08x, table says %08x", k, got, c.CRC)
		}
		if h := sumWith(t, writeHashID, span); h != c.Sum {
			t.Fatalf("chunk %d sum %x, table says %x", k, h, c.Sum)
		}
		off += c.Len
	}
	if off != size {
		t.Fatalf("chunk table covers %d bytes of a %d-byte stream", off, size)
	}
}

// TestCDCCommitRoundTrip: epoch 0 stores full chunked shards carrying
// self-sourced chunk tables under ManifestV5; an insertion-shifted epoch 1
// stores rank 1 as a CDC object whose reused chunks point into epoch 0, and
// everything loads back bit-identically.
func TestCDCCommitRoundTrip(t *testing.T) {
	fs := mustFileStore(t)
	img0 := cdcImage(4, 1)
	man0, st0 := commitCDC(t, fs, 0, nil, img0)
	if man0.Version != ManifestV5 {
		t.Fatalf("cdc commit sealed version %d, want %d", man0.Version, ManifestV5)
	}
	if st0.FreshShards != 4 || st0.CDCShards != 0 {
		t.Fatalf("epoch 0 must be all full shards: %+v", st0)
	}
	for _, si := range man0.Shards {
		if si.RawFormat != RawFormatChunked || len(si.Chunks) == 0 {
			t.Fatalf("rank %d fresh shard carries no chunk table: %+v", si.Rank, si)
		}
		for k, c := range si.Chunks {
			if c.SrcEpoch != 0 || c.SrcRank != si.Rank {
				t.Fatalf("rank %d chunk %d not self-sourced: %+v", si.Rank, k, c)
			}
		}
	}

	// Epoch 1: 64 bytes spliced into the middle of rank 1's bulk state.
	// Every later byte shifts, but content boundaries realign, so all but a
	// couple of chunks dedup against epoch 0.
	img1 := cdcImage(4, 1)
	img1.Images[1].App = insertAt(img1.Images[1].App, len(img1.Images[1].App)/2, noisyBytes(64, 99))
	img1.CaptureVT = 2.5
	man1, st1 := commitCDC(t, fs, 1, man0, img1)
	if st1.FreshShards != 1 || st1.ReusedShards != 3 || st1.CDCShards != 1 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	if st1.CDCBytes != st1.FreshBytes {
		t.Fatalf("the only fresh shard is a cdc object, so cdc bytes %d must equal fresh bytes %d",
			st1.CDCBytes, st1.FreshBytes)
	}
	c1 := shardOf(t, man1, 1)
	if c1.RawFormat != RawFormatCDC || c1.RefEpoch != 1 {
		t.Fatalf("epoch 1 cdc entry: %+v", c1)
	}
	full0 := shardOf(t, man0, 1)
	if c1.Size*4 > full0.Size {
		t.Fatalf("insertion-shifted cdc object %d B not well under a quarter of the full shard %d B", c1.Size, full0.Size)
	}
	var freshChunks, reusedChunks int
	for _, c := range c1.Chunks {
		if c.SrcEpoch == 1 {
			freshChunks++
		} else if c.SrcEpoch == 0 {
			reusedChunks++
		} else {
			t.Fatalf("chunk sourced from unknown epoch: %+v", c)
		}
	}
	if freshChunks == 0 || freshChunks > 4 || reusedChunks < 8 {
		t.Fatalf("insertion dirtied %d chunks and reused %d — realignment failed", freshChunks, reusedChunks)
	}

	got1, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1)
	ri, err := ExtractRankFromStore(fs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ri.App, img1.Images[1].App) {
		t.Fatal("single-rank extract through the cdc object diverged")
	}
	// The restart read set must span the chunk sources' epoch.
	reads, err := ResolveReadSet(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 || reads[0].Epoch != 1 || reads[1].Epoch != 0 {
		t.Fatalf("cdc epoch read set %+v, want epochs [1 0]", reads)
	}
	if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("cdc chain did not verify: faults=%v err=%v", faults, err)
	}

	// Epoch 2 repeats epoch 1's state: every rank — the CDC one included —
	// is a reference to the object its parent entry names, never an empty
	// chunk object.
	img2 := cdcImage(4, 1)
	img2.Images[1].App = img1.Images[1].App
	img2.CaptureVT = 3.5
	man2, st2 := commitCDC(t, fs, 2, man1, img2)
	if st2.FreshShards != 0 || st2.ReusedShards != 4 || st2.FreshBytes != 0 || st2.CDCShards != 0 {
		t.Fatalf("unchanged epoch 2 stats: %+v", st2)
	}
	c2 := shardOf(t, man2, 1)
	if c2.RawFormat != RawFormatCDC || c2.RefEpoch != 1 || c2.Checksum != c1.Checksum ||
		c2.DeltaRawSize != c1.DeltaRawSize || c2.DeltaRawSum != c1.DeltaRawSum || len(c2.Chunks) != len(c1.Chunks) {
		t.Fatalf("unchanged cdc rank is not a reference to epoch 1's object: %+v", c2)
	}

	// Epoch 3 rewrites rank 3 wholesale: with under half its bytes reused,
	// the differ re-anchors to a self-contained full shard carrying a
	// self-sourced table — and later epochs dedup against that new anchor.
	img3 := cdcImage(4, 1)
	img3.Images[1].App = img1.Images[1].App
	img3.Images[3].App = noisyBytes(len(img3.Images[3].App), 77)
	man3, st3 := commitCDC(t, fs, 3, man2, img3)
	if st3.FreshShards != 1 || st3.CDCShards != 0 {
		t.Fatalf("heavy churn still stored a cdc object: %+v", st3)
	}
	if si := shardOf(t, man3, 3); si.RawFormat != RawFormatChunked || si.RefEpoch != 3 || si.Chunks[0].SrcEpoch != 3 {
		t.Fatalf("re-anchored shard: %+v", si)
	}
	img4 := cdcImage(4, 1)
	img4.Images[1].App = img1.Images[1].App
	img4.Images[3].App = insertAt(img3.Images[3].App, 1<<18, noisyBytes(32, 78))
	man4, st4 := commitCDC(t, fs, 4, man3, img4)
	if st4.CDCShards != 1 {
		t.Fatalf("post-re-anchor churn stats: %+v", st4)
	}
	for _, c := range shardOf(t, man4, 3).Chunks {
		if c.SrcEpoch != 3 && c.SrcEpoch != 4 {
			t.Fatalf("chunk sourced from epoch %d, want the re-anchored 3 or fresh 4", c.SrcEpoch)
		}
	}
	for e, want := range map[int]*JobImage{2: img2, 4: img4} {
		got, err := LoadJobImage(fs, e)
		if err != nil {
			t.Fatal(err)
		}
		sameImages(t, want, got)
	}

	// A parent sealed without chunk tables (whole-shard hashing, or a chain
	// resumed from an older store) gives an empty chunk index, so a changed
	// rank is written as a self-contained full shard — never a CDC object
	// with nothing to reference.
	fs = mustFileStore(t)
	sums, err := HashCapture(img0)
	if err != nil {
		t.Fatal(err)
	}
	flat0, _, err := CommitStreamed(fs, 0, nil, img0, sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat1, stf := commitCDC(t, fs, 1, flat0, img1)
	if stf.CDCShards != 0 || stf.FreshShards != 1 || stf.ReusedShards != 3 {
		t.Fatalf("tableless parent produced a cdc object: %+v", stf)
	}
	if si := shardOf(t, flat1, 1); si.RawFormat != RawFormatChunked || len(si.Chunks) == 0 {
		t.Fatalf("fallback shard: %+v", si)
	}
	got, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got)
}

// TestCDCCrossRankReuse: a rank whose new state duplicates another rank's
// epoch-0 state dedups its chunks against the OTHER rank's stored object.
func TestCDCCrossRankReuse(t *testing.T) {
	fs := mustFileStore(t)
	img0 := cdcImage(4, 5)
	man0, _ := commitCDC(t, fs, 0, nil, img0)

	img1 := cdcImage(4, 5)
	// Rank 2 now holds a copy of rank 1's epoch-0 bulk state (cross-rank
	// duplication: think replicated read-only tables) with its own 64-byte
	// prefix so the shard identity still differs.
	img1.Images[2].App = append(noisyBytes(64, 123), img0.Images[1].App...)
	img1.CaptureVT = 2.5
	man1, st1 := commitCDC(t, fs, 1, man0, img1)
	if st1.CDCShards != 1 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	c2 := shardOf(t, man1, 2)
	if c2.RawFormat != RawFormatCDC {
		t.Fatalf("duplicated rank not stored as a cdc object: %+v", c2)
	}
	var crossRank int
	for _, c := range c2.Chunks {
		if c.SrcEpoch == 0 && c.SrcRank == 1 {
			crossRank++
		}
	}
	if crossRank < 8 {
		t.Fatalf("only %d chunks deduped against rank 1's object", crossRank)
	}
	got1, err := LoadJobImage(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1)
}

// TestCDCSourceCorruptionAttributed: damaging the stored object a reused
// chunk points into fails the load with the source epoch named, and
// VerifyStore attributes the same shard.
func TestCDCSourceCorruptionAttributed(t *testing.T) {
	fs := mustFileStore(t)
	img0 := cdcImage(4, 9)
	man0, _ := commitCDC(t, fs, 0, nil, img0)
	img1 := cdcImage(4, 9)
	img1.Images[1].App = insertAt(img1.Images[1].App, 4096, noisyBytes(32, 7))
	commitCDC(t, fs, 1, man0, img1)

	path := fs.ShardPath(0, 1)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, lerr := LoadJobImage(fs, 1)
	if lerr == nil {
		t.Fatal("load succeeded over a corrupted chunk source")
	}
	for _, want := range []string{"epoch 1", "rank 1", "chunk source shard in epoch 0 corrupted"} {
		if !strings.Contains(lerr.Error(), want) {
			t.Fatalf("load error %q does not attribute %q", lerr, want)
		}
	}
	faults, err := VerifyStore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) == 0 {
		t.Fatal("store verify missed the corrupted chunk source")
	}
	for _, f := range faults {
		if f.Rank != 1 {
			t.Fatalf("fault misattributed: %+v (want rank 1)", f)
		}
	}

	// A reused chunk whose bytes arrive intact from a sound source but
	// disagree with the manifest's chunk table is attributed to its chunk
	// index and source, from the per-chunk CRC at merge time.
	fs2 := mustFileStore(t)
	m0, _ := commitCDC(t, fs2, 0, nil, img0)
	m1, _ := commitCDC(t, fs2, 1, m0, img1)
	si := shardOf(t, m1, 1)
	k := len(si.Chunks) - 1
	if si.Chunks[k].SrcEpoch != 0 {
		t.Fatalf("last chunk of the edited rank is not reused: %+v", si.Chunks[k])
	}
	si.Chunks[k].CRC ^= 1
	if err := fs2.PutManifest(1, m1); err != nil {
		t.Fatal(err)
	}
	_, lerr = LoadJobImage(fs2, 1)
	if lerr == nil {
		t.Fatal("load succeeded over a chunk-table CRC mismatch")
	}
	for _, want := range []string{"epoch 1", "rank 1", fmt.Sprintf("chunk %d corrupted (crc", k), "sourced from epoch 0 rank 1"} {
		if !strings.Contains(lerr.Error(), want) {
			t.Fatalf("load error %q does not attribute %q", lerr, want)
		}
	}
}

// TestCDCChainGCAndCompaction: GC traces liveness through chunk refs (a
// chunk source epoch outlives the retention window), and compaction
// flattens a CDC entry into a self-contained full shard with a remapped
// self-sourced chunk table.
func TestCDCChainGCAndCompaction(t *testing.T) {
	fs := mustFileStore(t)
	img0 := cdcImage(4, 21)
	man0, _ := commitCDC(t, fs, 0, nil, img0)
	img1 := cdcImage(4, 21)
	img1.Images[1].App = insertAt(img1.Images[1].App, 1<<19, noisyBytes(48, 3))
	man1, _ := commitCDC(t, fs, 1, man0, img1)
	img2 := cdcImage(4, 21)
	img2.Images[1].App = insertAt(img1.Images[1].App, 1<<18, noisyBytes(48, 4))
	man2, st2 := commitCDC(t, fs, 2, man1, img2)
	if st2.CDCShards != 1 {
		t.Fatalf("epoch 2 stats: %+v", st2)
	}

	// GC keeping only the newest epoch must keep every chunk-source epoch
	// the survivor references alive.
	if _, err := GCStore(fs, 1); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadJobImage(fs, 2)
	if err != nil {
		t.Fatalf("load after GC: %v", err)
	}
	sameImages(t, img2, got2)

	// Compaction flattens the chain into one self-contained epoch: the CDC
	// entry becomes a full chunked shard whose table self-sources from the
	// new epoch, and a follow-up GC can then reclaim everything older.
	newMan, _, err := CompactChain(fs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newMan.Epoch == man2.Epoch {
		t.Fatal("chunk-referencing epoch reported as already self-contained")
	}
	for _, si := range newMan.Shards {
		if si.RefEpoch != newMan.Epoch || si.RawFormat == RawFormatCDC {
			t.Fatalf("compacted entry not self-contained: %+v", si)
		}
		if len(si.Chunks) == 0 {
			t.Fatalf("compacted rank %d dropped its chunk table", si.Rank)
		}
		for k, c := range si.Chunks {
			if c.SrcEpoch != newMan.Epoch || c.SrcRank != si.Rank {
				t.Fatalf("compacted rank %d chunk %d not remapped: %+v", si.Rank, k, c)
			}
		}
	}
	if _, err := GCStore(fs, 1); err != nil {
		t.Fatal(err)
	}
	if eps, err := fs.Epochs(); err != nil || len(eps) != 1 || eps[0] != newMan.Epoch {
		t.Fatalf("GC after compaction left epochs %v (err %v), want just %d", eps, err, newMan.Epoch)
	}
	gotC, err := LoadJobImage(fs, newMan.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img2, gotC)
	if faults, err := VerifyStore(fs); err != nil || len(faults) != 0 {
		t.Fatalf("compacted store did not verify: faults=%v err=%v", faults, err)
	}

	// The compacted chunk tables must keep deduplicating: one more
	// insertion-shifted capture on top of the compacted epoch stores a CDC
	// object again.
	img3 := cdcImage(4, 21)
	img3.Images[1].App = insertAt(img2.Images[1].App, 1<<17, noisyBytes(48, 5))
	_, st3 := commitCDC(t, fs, newMan.Epoch+1, newMan, img3)
	if st3.CDCShards != 1 {
		t.Fatalf("post-compaction capture did not dedup: %+v", st3)
	}
}

// TestCodecNoneRoundTrip: the none codec stores shards uncompressed (stored
// identity equals the raw identity), records CodecNone per shard, decodes a
// mixed-codec CDC chain, and still detects corruption.
func TestCodecNoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	model := netmodel.New(netmodel.EthernetLike(), 2)
	ms := NewModelStore(inner, model, 2)
	ms.Codec = "none"

	img0 := cdcImage(2, 31)
	man0, _ := commitCDC(t, ms, 0, nil, img0)
	for _, si := range man0.Shards {
		if si.CodecID != CodecNone {
			t.Fatalf("rank %d sealed with codec %d, want none", si.Rank, si.CodecID)
		}
		if si.Size != si.RawSize || si.Checksum != si.RawSum {
			t.Fatalf("none-codec stored identity differs from raw: %+v", si)
		}
	}
	got0, err := LoadJobImage(ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img0, got0)

	// A cdc epoch under the none codec: the object holds the fresh chunks
	// verbatim and still reassembles.
	img1 := cdcImage(2, 31)
	img1.Images[1].App = insertAt(img1.Images[1].App, 1<<19, noisyBytes(16, 8))
	man1, st1 := commitCDC(t, ms, 1, man0, img1)
	if st1.CDCShards != 1 {
		t.Fatalf("epoch 1 stats: %+v", st1)
	}
	if si := shardOf(t, man1, 1); si.CodecID != CodecNone || si.Size != si.DeltaRawSize {
		t.Fatalf("none-codec cdc object: %+v", si)
	}
	got1, err := LoadJobImage(ms, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img1, got1)

	// Mixed-codec chain: a flate epoch whose CDC object decodes against the
	// none-codec chain is resolved per shard from the manifest, not from
	// the store's current knob.
	ms.Codec = "flate"
	img2 := cdcImage(2, 31)
	img2.Images[1].App = insertAt(img2.Images[1].App, 1<<18, noisyBytes(16, 9))
	man2, _ := commitCDC(t, ms, 2, man1, img2)
	if si := shardOf(t, man2, 1); si.CodecID != CodecFlate {
		t.Fatalf("flate epoch sealed with codec %d", si.CodecID)
	}
	got2, err := LoadJobImage(ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameImages(t, img2, got2)

	// Corruption under the none codec is still caught by the stored-object
	// checksum.
	path := inner.ShardPath(0, 0)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJobImage(ms, 0); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("none-codec corruption not caught: %v", err)
	}
}
