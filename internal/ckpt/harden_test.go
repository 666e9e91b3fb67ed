package ckpt

// Fuzz-ish hardening tests for the image decode paths: truncated blobs,
// hostile shard-table geometry, and ranks missing from the manifest must
// all come back as errors — never as panics or unbounded allocations.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
)

// decodeAll exercises every public decode entry point on one blob, failing
// the test if any of them panics. It reports whether the full decode
// errored and whether per-shard verification detected a problem (VerifyImage
// reports shard corruption through faults, not an error). DecodeManifest and
// ExtractRank run for panic coverage; their errors are not asserted here —
// a manifest can be internally consistent while its shard data is damaged.
func decodeAll(t *testing.T, data []byte) (decodeErrored, verifyDetected bool) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("decode panicked on %d bytes: %v", len(data), p)
		}
	}()
	_, err := DecodeJobImage(data)
	decodeErrored = err != nil
	_, _ = DecodeManifest(data)
	for r := -1; r < 4; r++ {
		_, _ = ExtractRank(data, r)
	}
	faults, verr := VerifyImage(data)
	verifyDetected = verr != nil || len(faults) > 0
	return decodeErrored, verifyDetected
}

// TestTruncatedImagesError: every truncation of a valid image (sampled
// densely through the header and manifest, sparsely through shard data)
// must error out of every decode path without panicking.
func TestTruncatedImagesError(t *testing.T) {
	full, err := testJobImage(5).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if img, err := DecodeJobImage(full); err != nil || img == nil {
		t.Fatalf("pristine image did not decode: %v", err)
	}
	lengths := map[int]bool{}
	for l := 0; l < len(full) && l < 64; l++ {
		lengths[l] = true // every header/near-header truncation
	}
	for l := 64; l < len(full); l += len(full)/97 + 1 {
		lengths[l] = true // sampled through manifest and shard data
	}
	lengths[len(full)-1] = true
	for l := range lengths {
		decodeErrored, verifyDetected := decodeAll(t, full[:l])
		if !decodeErrored || !verifyDetected {
			t.Fatalf("truncation to %d of %d bytes slipped through (decode err=%v, verify detected=%v)",
				l, len(full), decodeErrored, verifyDetected)
		}
	}
	// v1 truncations too (single-checksum format).
	v1, err := testJobImage(3).EncodeV1()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 4, 8, 12, 15, len(v1) / 2, len(v1) - 1} {
		decodeErrored, verifyDetected := decodeAll(t, v1[:l])
		if !decodeErrored || !verifyDetected {
			t.Fatalf("v1 truncation to %d bytes slipped through", l)
		}
	}
}

// forgeImage re-wraps a (possibly hostile) manifest with a valid header
// checksum in front of the given shard data, simulating corruption that a
// simple checksum cannot catch — the manifest itself is internally
// consistent, just wrong.
func forgeImage(t *testing.T, man *Manifest, shardData []byte) []byte {
	t.Helper()
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(man); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), imageMagicV2...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(head.Len()))
	out = append(out, u32[:]...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], checksumOf(head.Bytes()))
	out = append(out, u64[:]...)
	out = append(out, head.Bytes()...)
	return append(out, shardData...)
}

// TestHostileManifestsError: internally-checksummed manifests with insane
// shard geometry must be rejected by validation, not trusted into slicing
// or allocation.
func TestHostileManifestsError(t *testing.T) {
	base, err := testJobImage(3).Encode()
	if err != nil {
		t.Fatal(err)
	}
	man, err := DecodeManifest(base)
	if err != nil {
		t.Fatal(err)
	}
	headLen := int64(binary.LittleEndian.Uint32(base[8:12]))
	shardData := base[20+headLen:]

	mutate := func(f func(m *Manifest)) []byte {
		m := *man
		m.Shards = append([]ShardInfo(nil), man.Shards...)
		f(&m)
		return forgeImage(t, &m, shardData)
	}

	cases := map[string][]byte{
		"negative offset": mutate(func(m *Manifest) { m.Shards[1].Offset = -9 }),
		"negative size":   mutate(func(m *Manifest) { m.Shards[1].Size = -1 }),
		"negative raw":    mutate(func(m *Manifest) { m.Shards[1].RawSize = -1 }),
		"offset past end": mutate(func(m *Manifest) { m.Shards[2].Offset = int64(len(shardData)) }),
		"size past end":   mutate(func(m *Manifest) { m.Shards[0].Size = int64(len(shardData)) + 1 }),
		"offset overflow": mutate(func(m *Manifest) { m.Shards[1].Offset = 1 << 62; m.Shards[1].Size = 1 << 62 }),
		"rank out of range": mutate(func(m *Manifest) {
			m.Shards[0].Rank = 7
		}),
		"negative ranks": mutate(func(m *Manifest) { m.Ranks = -1; m.Shards = nil }),
		"shard/rank mismatch": mutate(func(m *Manifest) {
			m.Shards = m.Shards[:2]
		}),
		// An absurd RawSize must error after bounded work (the decompressed
		// stream won't match), never preallocate the declared size.
		"absurd raw size": mutate(func(m *Manifest) { m.Shards[1].RawSize = 1 << 50 }),
		// Raw format 2 (page deltas) is retired: no reader exists for it.
		"retired page delta": mutate(func(m *Manifest) { m.Shards[1].RawFormat = RawFormatPageDelta }),
		// A flipped bit in HashID must not select a hash: an unknown id is
		// rejected, and blob images are FNV-1a only.
		"unknown identity hash":  mutate(func(m *Manifest) { m.Shards[1].HashID = 1 << 3 }),
		"blob shard under xxh64": mutate(func(m *Manifest) { m.Shards[2].HashID = HashXXH64 }),
	}
	for name, blob := range cases {
		decodeErrored, verifyDetected := decodeAll(t, blob)
		if !decodeErrored || !verifyDetected {
			t.Fatalf("%s: hostile manifest slipped through (decode err=%v, verify detected=%v)",
				name, decodeErrored, verifyDetected)
		}
	}
}

// TestRetiredPageDeltaStores reads a store the retired page-delta writer
// sealed (testdata/v4-page-delta-store: three 16 KiB ranks, app byte i of
// rank r = 7+r+i%251, committed with 1 KiB page tables; epoch 1 stores rank
// 1 as a raw-format-2 delta against epoch 0). Epoch 0 is a v4 manifest of
// full shards and must still load — gob drops its page tables — while
// epoch 1 must fail every store entry point with a diagnostic naming the
// rank and the re-checkpoint remedy, never a panic.
func TestRetiredPageDeltaStores(t *testing.T) {
	fs := &FileStore{Root: "testdata/v4-page-delta-store"}
	man0, err := fs.GetManifest(0)
	if err != nil {
		t.Fatal(err)
	}
	if man0.Version != ManifestV4 {
		t.Fatalf("fixture epoch 0 is manifest v%d, want v4", man0.Version)
	}
	got, err := LoadJobImage(fs, 0)
	if err != nil {
		t.Fatalf("v4 manifest of full shards no longer loads: %v", err)
	}
	for r, ri := range got.Images {
		if ri.Rank != r || len(ri.App) != 16<<10+r*64 {
			t.Fatalf("rank %d restored as rank %d with %d app bytes", r, ri.Rank, len(ri.App))
		}
		for i, b := range ri.App {
			if b != byte(7+r+i%251) {
				t.Fatalf("rank %d app byte %d = %d, want %d", r, i, b, byte(7+r+i%251))
			}
		}
	}

	wants := []string{"rank 1", "raw format 2", "no longer readable", "re-checkpoint"}
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a page-delta manifest", what)
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s error %q does not say %q", what, err, w)
			}
		}
	}
	_, err = LoadJobImage(fs, 1)
	check("LoadJobImage", err)
	_, err = ExtractRankFromStore(fs, 1, 0)
	check("ExtractRankFromStore", err)
	_, err = ResolveReadSet(fs, 1)
	check("ResolveReadSet", err)
	faults, err := VerifyStore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 || faults[0].Epoch != 1 {
		t.Fatalf("VerifyStore faults %+v, want exactly epoch 1's manifest", faults)
	}
	check("VerifyStore", faults[0].Err)
}

// TestRankNotInManifest: extraction of a rank the manifest does not list
// must error on both formats.
func TestRankNotInManifest(t *testing.T) {
	v2, err := testJobImage(3).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractRank(v2, 17); err == nil || !strings.Contains(err.Error(), "no rank 17") {
		t.Fatalf("v2 extract of missing rank: %v", err)
	}
	if _, _, err := ShardRange(v2, 17); err == nil {
		t.Fatal("ShardRange found a missing rank")
	}
	v1, err := testJobImage(3).EncodeV1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractRank(v1, 17); err == nil || !strings.Contains(err.Error(), "no rank 17") {
		t.Fatalf("v1 extract of missing rank: %v", err)
	}
}

// TestManifestRecordRoundTripAndCorruption: the store's standalone manifest
// records must round-trip and reject truncation/corruption.
func TestManifestRecordRoundTrip(t *testing.T) {
	man := &Manifest{
		Algorithm: "cc", Ranks: 2, PPN: 2, CaptureVT: 3.25,
		Version: ManifestV3, Epoch: 4, Parent: 2,
		Shards: []ShardInfo{
			{Rank: 0, Size: 10, RawSize: 20, Checksum: 5, RefEpoch: 1, ClockVT: 3.0, RawSum: 9},
			{Rank: 1, Size: 11, RawSize: 21, Checksum: 6, RefEpoch: 4, ClockVT: 3.25, RawSum: 8},
		},
	}
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifestRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 || got.Parent != 2 || got.Shards[0].RefEpoch != 1 || got.Shards[1].ClockVT != 3.25 {
		t.Fatalf("record round trip lost fields: %+v", got)
	}
	for _, l := range []int{0, 7, 19, len(rec) - 1} {
		if _, err := DecodeManifestRecord(rec[:l]); err == nil {
			t.Fatalf("truncated record (%d bytes) decoded", l)
		}
	}
	bad := append([]byte(nil), rec...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := DecodeManifestRecord(bad); err == nil {
		t.Fatal("corrupted record decoded")
	}
	// A record whose shard table references a future epoch is invalid.
	evil := *man
	evil.Shards = append([]ShardInfo(nil), man.Shards...)
	evil.Shards[0].RefEpoch = 9
	rec2, err := EncodeManifestRecord(&evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifestRecord(rec2); err == nil {
		t.Fatal("future-epoch reference accepted")
	}
	// Store records name each entry's identity hash; an unknown id fails
	// decode with a diagnostic instead of selecting a hash.
	for _, id := range []int{-1, HashXXH64 + 1} {
		evil.Shards[0].RefEpoch = 1
		evil.Shards[1].HashID = id
		rec3, err := EncodeManifestRecord(&evil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifestRecord(rec3); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("rank 1 shard declares unknown identity hash %d", id)) {
			t.Fatalf("hash id %d: %v", id, err)
		}
	}
}
