package ckpt

// Tests for the v2 sharded image format: v1 backward compatibility,
// determinism of the parallel encoder, per-shard corruption attribution,
// manifest inspection, single-rank extraction, and serial/parallel capture
// equivalence.

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mana/internal/mpi"
	"mana/internal/netmodel"
)

// testJobImage builds a representative image: mixed park kinds, pending
// collective and receive descriptors, in-flight messages, uneven payloads.
func testJobImage(ranks int) *JobImage {
	ji := &JobImage{
		Algorithm: "cc", Ranks: ranks, PPN: 2, CaptureVT: 1.25,
		Images: make([]RankImage, ranks),
	}
	for r := 0; r < ranks; r++ {
		app := make([]byte, 64+r*17)
		for i := range app {
			app[i] = byte(r + i)
		}
		ri := RankImage{Rank: r, App: app, Proto: []byte{byte(r), 2, 3}, ClockVT: 1.0 + float64(r)/8}
		switch r % 3 {
		case 0:
			ri.Desc = Descriptor{
				Kind: ParkPreCollective,
				Coll: &CollDesc{CommVID: 1, Kind: 3, Root: 2, InBufID: "x", OutBufID: "x"},
				Recvs: []RecvDesc{
					{CommVID: 0, Src: 1, Tag: 7, BufID: "halo", Off: 8, Len: 16},
				},
			}
			ri.Inflight = []mpi.InflightSnapshot{
				{CommID: 1, SrcComm: 1, Tag: 7, Data: []byte("msg")},
			}
		case 1:
			ri.Desc = Descriptor{
				Kind: ParkPreCollective,
				Coll: &CollDesc{CommVID: 0, Kind: 1, Bench: true, VirtSize: 0},
			}
		default:
			ri.Desc = Descriptor{Kind: ParkDone}
		}
		ji.Images[r] = ri
	}
	return ji
}

// TestV1ImagesStillDecode: images written by the legacy monolithic encoder
// must keep decoding, bit-identically to what the v2 round trip produces.
func TestV1ImagesStillDecode(t *testing.T) {
	ji := testJobImage(6)
	v1, err := ji.EncodeV1()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ji.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(v1[:8], v2[:8]) {
		t.Fatal("v1 and v2 images share a magic; version sniffing is impossible")
	}
	fromV1, err := DecodeJobImage(v1)
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	fromV2, err := DecodeJobImage(v2)
	if err != nil {
		t.Fatalf("v2 decode: %v", err)
	}
	if !reflect.DeepEqual(fromV1, fromV2) {
		t.Fatalf("v1 and v2 decodes disagree:\nv1: %+v\nv2: %+v", fromV1, fromV2)
	}
	if fromV2.Algorithm != "cc" || fromV2.Ranks != 6 || fromV2.CaptureVT != 1.25 {
		t.Fatalf("header mismatch: %+v", fromV2)
	}
	// The Bench flag survives both formats.
	if c := fromV1.Images[1].Desc.Coll; c == nil || !c.Bench {
		t.Fatalf("bench descriptor lost through v1: %+v", fromV1.Images[1].Desc)
	}
	if c := fromV2.Images[1].Desc.Coll; c == nil || !c.Bench {
		t.Fatalf("bench descriptor lost through v2: %+v", fromV2.Images[1].Desc)
	}
}

// TestEncodeDeterministic: the parallel encoder must produce identical bytes
// run to run — shards land in rank order regardless of worker scheduling.
func TestEncodeDeterministic(t *testing.T) {
	ji := testJobImage(16)
	a, err := ji.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b, err := ji.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("encode attempt %d produced different bytes", i)
		}
	}
}

func TestManifestAndShardRange(t *testing.T) {
	ji := testJobImage(5)
	ji.PaddedBytesPerRank = 1234
	blob, err := ji.Encode()
	if err != nil {
		t.Fatal(err)
	}
	man, err := DecodeManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if man.Algorithm != "cc" || man.Ranks != 5 || man.PPN != 2 ||
		man.CaptureVT != 1.25 || man.PaddedBytesPerRank != 1234 {
		t.Fatalf("manifest header mismatch: %+v", man)
	}
	if len(man.Shards) != 5 {
		t.Fatalf("manifest has %d shards, want 5", len(man.Shards))
	}
	var total int64
	for i, s := range man.Shards {
		if s.Rank != i {
			t.Fatalf("shard %d claims rank %d", i, s.Rank)
		}
		if s.Offset != total {
			t.Fatalf("shard %d at offset %d, want %d (contiguous)", i, s.Offset, total)
		}
		if s.Size <= 0 || s.RawSize <= 0 {
			t.Fatalf("shard %d has degenerate sizes: %+v", i, s)
		}
		lo, hi, err := ShardRange(blob, i)
		if err != nil {
			t.Fatal(err)
		}
		if hi-lo != s.Size {
			t.Fatalf("ShardRange(%d) spans %d bytes, manifest says %d", i, hi-lo, s.Size)
		}
		total += s.Size
	}
	if _, err := DecodeManifest([]byte("MANAIMG1xxxxxxxx")); err == nil {
		t.Fatal("v1 image yielded a manifest")
	}
	if _, _, err := ShardRange(blob, 99); err == nil {
		t.Fatal("ShardRange accepted a nonexistent rank")
	}
}

func TestExtractRank(t *testing.T) {
	ji := testJobImage(6)
	for _, encode := range []struct {
		name string
		fn   func() ([]byte, error)
	}{
		{"v2", ji.Encode},
		{"v1", ji.EncodeV1},
	} {
		blob, err := encode.fn()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{0, 3, 5} {
			ri, err := ExtractRank(blob, r)
			if err != nil {
				t.Fatalf("%s extract rank %d: %v", encode.name, r, err)
			}
			if !reflect.DeepEqual(*ri, ji.Images[r]) {
				t.Fatalf("%s extract rank %d mismatch:\ngot  %+v\nwant %+v", encode.name, r, *ri, ji.Images[r])
			}
		}
		if _, err := ExtractRank(blob, 99); err == nil {
			t.Fatalf("%s extract accepted a nonexistent rank", encode.name)
		}
	}
}

// TestShardCorruptionAttributed: flipping one byte in rank k's shard must
// fail the decode, and per-shard verification must attribute the fault to
// exactly rank k.
func TestShardCorruptionAttributed(t *testing.T) {
	ji := testJobImage(8)
	blob, err := ji.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if faults, err := VerifyImage(blob); err != nil || len(faults) != 0 {
		t.Fatalf("pristine image has faults %v (err %v)", faults, err)
	}
	for _, victim := range []int{0, 3, 7} {
		lo, hi, err := ShardRange(blob, victim)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), blob...)
		bad[(lo+hi)/2] ^= 0xFF
		if _, err := DecodeJobImage(bad); err == nil {
			t.Fatalf("decode accepted corruption in rank %d's shard", victim)
		}
		faults, err := VerifyImage(bad)
		if err != nil {
			t.Fatalf("verify failed structurally: %v", err)
		}
		if len(faults) != 1 || faults[0].Rank != victim {
			t.Fatalf("corruption in rank %d attributed to %v", victim, faults)
		}
	}
	// Manifest corruption is structural: no shard to blame.
	bad := append([]byte(nil), blob...)
	bad[15] ^= 0xFF // inside the manifest checksum/header region
	if _, err := VerifyImage(bad); err == nil {
		t.Fatal("corrupted manifest verified")
	}
	// A corrupted v1 image yields one unattributed fault.
	v1, err := ji.EncodeV1()
	if err != nil {
		t.Fatal(err)
	}
	v1[len(v1)-1] ^= 0xFF
	faults, err := VerifyImage(v1)
	if err != nil || len(faults) != 1 || faults[0].Rank != -1 {
		t.Fatalf("corrupted v1 image: faults %v err %v", faults, err)
	}
}

// TestCaptureSerialParallelEquivalent: the coordinator must build the same
// image regardless of the capture fan-out width.
func TestCaptureSerialParallelEquivalent(t *testing.T) {
	capture := func(workers int) *JobImage {
		const n = 16
		w := mpi.NewWorld(n, netmodel.New(netmodel.PerlmutterLike(), 4))
		c := NewCoordinator(w, ContinueAfterCapture)
		c.CaptureWorkers = workers
		a := &stubAlgo{quiesced: true}
		c.SetAlgorithm(a)
		for r := 0; r < n; r++ {
			rank := r
			c.RegisterRank(r, RankHooks{
				AppSnapshot: func() ([]byte, error) {
					buf := make([]byte, 128)
					for i := range buf {
						buf[i] = byte(rank * i)
					}
					return buf, nil
				},
				ProtoSnapshot: func() ([]byte, error) { return []byte{byte(rank)}, nil },
				ClockVT:       func() float64 { return float64(rank) },
				SetClock:      func(vt float64) {},
				PendingRecvs:  func() []RecvDesc { return nil },
			})
		}
		c.RequestCheckpoint(1.0)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c.ParkUntil(rank, &Descriptor{Kind: ParkBoundary}, func() Decision { return Stay })
			}(r)
		}
		wg.Wait()
		img, _, err := c.Result()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	serial, parallel := capture(1), capture(8)
	// CaptureVT and per-rank payloads must agree; host-time stats differ by
	// construction, but they live outside the image.
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel captures differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// memSink is a minimal WriteCloser capturing a shard stream.
type memSink struct {
	bytes.Buffer
	closed bool
}

func (s *memSink) Close() error { s.closed = true; return nil }

// TestShardWriterStreamsIdentically: the streaming encoder's summary must
// agree byte-for-byte with what actually reached the sink, its raw identity
// must match the hash-only pass that keys the incremental differ, and the
// chunked stream must round-trip the rank image exactly (clock zeroed).
func TestShardWriterStreamsIdentically(t *testing.T) {
	ji := testJobImage(5)
	for r := range ji.Images {
		ri := &ji.Images[r]

		sink := &memSink{}
		sw, err := NewShardWriter(ri.Rank, sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Encode(ri, true); err != nil {
			t.Fatal(err)
		}
		sum, err := sw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !sink.closed {
			t.Fatal("shard writer did not close its store stream")
		}
		blob := sink.Bytes()
		if int64(len(blob)) != sum.Size || sumWith(t, writeHashID, blob) != sum.Checksum {
			t.Fatalf("rank %d: summary %+v disagrees with the %d streamed bytes", r, sum, len(blob))
		}

		wantSum, wantSize, err := hashShardClockless(ri)
		if err != nil {
			t.Fatal(err)
		}
		if sum.RawSum != wantSum || sum.RawSize != wantSize {
			t.Fatalf("rank %d: streamed raw identity (%x, %d) != hashed (%x, %d)",
				r, sum.RawSum, sum.RawSize, wantSum, wantSize)
		}

		got, err := decodeShardStream(bytes.NewReader(blob), sum.RawSize, sum.Checksum, writeHashID, RawFormatChunked, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := *ri
		want.ClockVT = 0
		if got.Rank != want.Rank || got.ClockVT != 0 ||
			!bytes.Equal(got.App, want.App) || !bytes.Equal(got.Proto, want.Proto) ||
			!reflect.DeepEqual(got.Desc, want.Desc) || len(got.Inflight) != len(want.Inflight) {
			t.Fatalf("rank %d stream decode mismatch:\ngot  %+v\nwant %+v", r, got, &want)
		}
		for i := range want.Inflight {
			if !reflect.DeepEqual(got.Inflight[i], want.Inflight[i]) {
				t.Fatalf("rank %d in-flight %d mismatch: %+v vs %+v", r, i, got.Inflight[i], want.Inflight[i])
			}
		}
	}
}

// TestLegacyGobShardsStillDecode: stores written before the chunked layout
// hold whole-gob raw streams (checksummed with FNV-1a, the only identity
// hash of that era); the streaming decoder must keep reading them through
// RawFormatGob.
func TestLegacyGobShardsStillDecode(t *testing.T) {
	ri := &testJobImage(3).Images[0]
	clockless := *ri
	clockless.ClockVT = 0
	blob, rawSize, err := encodeShard(&clockless) // the legacy gob+flate encoder
	if err != nil {
		t.Fatal(err)
	}
	legacySum := sumWith(t, HashFNV1a, blob)
	got, err := decodeShardStream(bytes.NewReader(blob), rawSize, legacySum, HashFNV1a, RawFormatGob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != ri.Rank || !bytes.Equal(got.App, ri.App) {
		t.Fatalf("legacy decode mismatch: %+v", got)
	}
	// The formats must not alias: chunked bytes under the gob format (and
	// vice versa) fail as decode errors, not silent misreads.
	if _, err := decodeShardStream(bytes.NewReader(blob), rawSize, legacySum, HashFNV1a, RawFormatChunked, nil); err == nil {
		t.Fatal("gob bytes decoded under the chunked format")
	}
	if _, err := decodeShardStream(bytes.NewReader(blob), rawSize, legacySum, HashFNV1a, RawFormatChunked+1, nil); err == nil ||
		!strings.Contains(err.Error(), "unsupported raw shard format") {
		t.Fatalf("unknown format not rejected: %v", err)
	}
}

// TestChunkedHeaderStaysSmall: the whole point of the chunked layout is
// that only the header passes through gob — the raw stream's overhead over
// the payload bytes must stay constant-ish as the state grows, or encode
// memory is secretly scaling with the shard again.
func TestChunkedHeaderStaysSmall(t *testing.T) {
	ri := &RankImage{Rank: 0, App: make([]byte, 8<<20), Proto: []byte{1, 2}}
	_, rawSize, err := hashShardClockless(ri)
	if err != nil {
		t.Fatal(err)
	}
	payload := int64(len(ri.App) + len(ri.Proto))
	if overhead := rawSize - payload; overhead <= 0 || overhead > 4096 {
		t.Fatalf("chunked overhead %d bytes over %d payload (want small and positive)", overhead, payload)
	}
}

// TestDecodeShardStreamRejects: the streaming decoder must attribute a
// flipped bit, a truncation, trailing garbage, and a lying raw size.
func TestDecodeShardStreamRejects(t *testing.T) {
	ri := &testJobImage(3).Images[1]
	sink := &memSink{}
	sw, err := NewShardWriter(ri.Rank, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Encode(ri, true); err != nil {
		t.Fatal(err)
	}
	sum, err := sw.Close()
	if err != nil {
		t.Fatal(err)
	}
	blob := sink.Bytes()

	cases := map[string]struct {
		mutate  func([]byte) []byte
		rawSize int64
		want    string
	}{
		"bit-flip":  {func(b []byte) []byte { b[len(b)/2] ^= 1; return b }, sum.RawSize, "corrupted"},
		"truncated": {func(b []byte) []byte { return b[:len(b)/2] }, sum.RawSize, "corrupted"},
		"trailing":  {func(b []byte) []byte { return append(b, 0xEE) }, sum.RawSize, "corrupted"},
		"raw-size":  {func(b []byte) []byte { return b }, sum.RawSize + 1, "raw size mismatch"},
		"neg-size":  {func(b []byte) []byte { return b }, -1, "negative raw size"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), blob...))
			_, err := decodeShardStream(bytes.NewReader(b), tc.rawSize, sum.Checksum, writeHashID, RawFormatChunked, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestStreamBudgetAccounting: acquire blocks at capacity, oversized
// requests clamp instead of deadlocking, and TakePeak reports per-window
// high-water marks.
func TestStreamBudgetAccounting(t *testing.T) {
	b := NewStreamBudget(100)
	if b.Cap() != 100 {
		t.Fatalf("cap %d", b.Cap())
	}
	b.Acquire(60)
	b.Acquire(40) // exactly full
	released := make(chan struct{})
	go func() {
		b.Acquire(10) // must block until something frees
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("acquire over capacity did not block")
	case <-time.After(20 * time.Millisecond):
	}
	b.Release(60)
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("acquire did not wake on release")
	}
	if p := b.TakePeak(); p != 100 {
		t.Fatalf("peak %d, want 100", p)
	}
	b.Release(40)
	b.Release(10)
	if p := b.TakePeak(); p != 50 {
		// After the reset the window's high-water was the in-use level at
		// reset time (50: the 40 + the unblocked 10).
		t.Fatalf("second-window peak %d, want 50", p)
	}

	// A request larger than the whole budget clamps (single streams must
	// always make progress) rather than deadlocking.
	b.Acquire(1000)
	if p := b.TakePeak(); p != 100 {
		t.Fatalf("clamped acquire peaked at %d, want 100", p)
	}
	b.Release(1000)

	// Default capacity kicks in for zero.
	if NewStreamBudget(0).Cap() != DefaultStreamBudgetBytes {
		t.Fatal("zero capacity did not select the default")
	}
}

// TestHostileShardHeadersErrorCleanly: the streaming decoder parses header
// bytes BEFORE the checksum is verified, so hostile or bit-rotted framing
// must fail with a diagnostic — never a huge allocation or a panic.
func TestHostileShardHeadersErrorCleanly(t *testing.T) {
	compress := func(raw []byte) []byte {
		blob, err := compressShard(0, raw)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	t.Run("overflowing-payload-lengths", func(t *testing.T) {
		// A chunked header whose payload lengths sum past int64: each term
		// must be budgeted individually, not summed into an overflow.
		var raw bytes.Buffer
		raw.Write(shardRawMagic)
		hdr := shardRawHeader{Rank: 0, AppLen: 1 << 62, ProtoLen: 1 << 62,
			InflightLens: []int64{1 << 62, 1 << 62}, Inflight: make([]mpi.InflightSnapshot, 2)}
		if err := gob.NewEncoder(&raw).Encode(&hdr); err != nil {
			t.Fatal(err)
		}
		blob := compress(raw.Bytes())
		_, err := decodeShardStream(bytes.NewReader(blob), int64(raw.Len()), sumWith(t, writeHashID, blob), writeHashID, RawFormatChunked, nil)
		if err == nil || !strings.Contains(err.Error(), "payloads beyond") {
			t.Fatalf("overflowing header not rejected: %v", err)
		}
	})

	t.Run("absurd-gob-message-length", func(t *testing.T) {
		// A raw stream whose gob framing declares a multi-gigabyte message:
		// the capped reader must refuse before gob allocates it.
		raw := []byte{0xF8, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF} // -8 ext bytes: ~2^63
		blob := compress(raw)
		_, err := decodeShardStream(bytes.NewReader(blob), int64(len(raw)), sumWith(t, writeHashID, blob), writeHashID, RawFormatGob, nil)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("absurd gob message length not rejected: %v", err)
		}
	})

	t.Run("legacy-bit-rot-reports-corruption", func(t *testing.T) {
		// Flipping one stored bit of a legacy shard must come back as the
		// checksum diagnostic (allocation-bounded on the way), as it did
		// when the blob was checksummed before decode.
		ri := &testJobImage(3).Images[0]
		clockless := *ri
		clockless.ClockVT = 0
		blob, rawSize, err := encodeShard(&clockless)
		if err != nil {
			t.Fatal(err)
		}
		want := sumWith(t, HashFNV1a, blob)
		mut := append([]byte(nil), blob...)
		mut[len(mut)/3] ^= 0x10
		_, err = decodeShardStream(bytes.NewReader(mut), rawSize, want, HashFNV1a, RawFormatGob, nil)
		if err == nil || !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("bit rot not reported as corruption: %v", err)
		}
	})
}
