package ckpt

// Checkpoint image serialization.
//
// Two on-disk formats are supported:
//
//   - v1 ("MANAIMG1"): the original monolithic format — one gob stream of the
//     whole JobImage behind a single FNV-1a checksum. Still decoded for
//     backward compatibility (EncodeV1 exists for tests and benchmarks).
//
//   - v2 ("MANAIMG2"): the sharded format. Every rank's RankImage is an
//     independent shard — gob-encoded, flate-compressed, and FNV-1a
//     checksummed on its own — referenced from a job manifest that carries
//     the job geometry and the shard table (offset, size, checksum). Shards
//     are encoded and decoded in parallel across GOMAXPROCS workers, a
//     corrupted image is attributed to the specific rank shard that failed,
//     and a single rank can be extracted without materializing the job
//     (ExtractRank). This is the format MANA-style per-rank image files
//     collapse into when the job image is a single blob.
//
// Layout of a v2 image:
//
//	[0:8)    magic "MANAIMG2"
//	[8:12)   uint32 LE: manifest gob length M
//	[12:20)  uint64 LE: FNV-1a checksum of the manifest gob
//	[20:20+M) manifest gob (Manifest)
//	[20+M:)  shard blobs, concatenated in manifest order
//
// Encode always emits v2; DecodeJobImage sniffs the magic and accepts both.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mana/internal/mpi"
)

// Image format magics. A corrupted or truncated image must fail loudly at
// decode time, not as a mysterious divergence after restart.
var (
	imageMagicV1 = []byte("MANAIMG1")
	imageMagicV2 = []byte("MANAIMG2")
)

// shardCompression is the flate level applied to every shard. BestSpeed: the
// pipeline is checksum- and copy-bound, and checkpoint images (gobs of
// float-heavy application state) compress well even at the fastest level.
const shardCompression = flate.BestSpeed

// ShardInfo locates and authenticates one rank's shard inside a v2 image or
// a v3 store epoch. The RefEpoch/ClockVT/RawSum fields are meaningful only in
// v3 manifests (see FORMAT.md); v2 blob images leave them zero.
type ShardInfo struct {
	Rank     int
	Offset   int64  // into the shard data section (after the manifest); 0 in stores
	Size     int64  // compressed shard bytes
	RawSize  int64  // gob bytes before compression
	Checksum uint64 // identity hash (HashID) over the compressed shard blob

	// RefEpoch is the store epoch whose shard data holds this rank's bytes.
	// Equal to the manifest's own Epoch for freshly written shards; an
	// earlier epoch for shards reused unchanged from a prior capture
	// (incremental checkpointing). Reference chains are collapsed at commit
	// time, so RefEpoch always names the epoch that physically wrote the
	// blob.
	RefEpoch int
	// ClockVT is the rank's virtual clock at capture. v3 shard blobs are
	// encoded with the clock zeroed — it is the one field that changes every
	// capture even for an otherwise idle rank, and keeping it out of the
	// blob is what makes shard reuse possible. Restart re-applies it from
	// here.
	ClockVT float64
	// RawSum is the identity hash (HashID) of the raw (pre-compression,
	// clock-zeroed) shard stream — the identity the incremental differ
	// compares against the previous epoch.
	RawSum uint64
	// RawFormat selects the raw shard stream's layout (store shards only):
	// RawFormatGob for legacy whole-gob shards, RawFormatChunked for the
	// bounded-memory header+payload layout the streaming writer emits,
	// RawFormatCDC for a content-defined-chunk object reconstructed from its
	// chunk table (cdc.go). Old manifests decode with the zero value, which is
	// the legacy format.
	RawFormat int

	// DeltaRawSize/DeltaRawSum are a RawFormatCDC object's stored stream
	// (magic + header + fresh chunk payloads): its raw (pre-compression)
	// length and identity hash — what Size/Checksum compress. RawSum and
	// RawSize ALWAYS describe the LOGICAL chunked stream the differ keys on,
	// never the stored object.
	DeltaRawSize int64
	DeltaRawSum  uint64

	// Chunks is the content-defined chunk table of the LOGICAL stream (CDC
	// mode, cdc.go): per chunk its length, CRC-32C, identity content hash, and
	// the physical object its bytes live in. Present on every shard
	// committed with CDC on (full chunked shards carry a self-sourced table
	// so later epochs can reuse their chunks); required when RawFormat ==
	// RawFormatCDC.
	Chunks []ChunkRef
	// CodecID names the codec that encoded the stored object (codec.go).
	// The zero value is CodecFlate, so every manifest written before codecs
	// existed keeps meaning what it meant.
	CodecID int
	// HashID names the identity hash (hash.go) behind Checksum, RawSum,
	// DeltaRawSum and every Chunks[k].Sum of this entry. The zero value is
	// HashFNV1a, so every manifest written before the field existed keeps
	// meaning what it meant; new shards are written with writeHashID, and
	// reuse only ever matches entries of that same hash.
	HashID int
}

// Raw shard stream formats (ShardInfo.RawFormat).
const (
	// RawFormatGob: one gob(RankImage) message, clock zeroed. gob frames
	// every Encode as a single length-prefixed message that it buffers IN
	// FULL on both sides, so this layout costs a whole-shard buffer no
	// matter how it is transported. Kept for decoding stores written
	// before the chunked layout.
	RawFormatGob = 0
	// RawFormatChunked: a small gob header (the RankImage minus its bulk
	// payloads, plus their lengths) followed by the payload bytes raw —
	// App, Proto, then each in-flight message's data, in order. Only the
	// header passes through gob, so encode buffering is O(header) and
	// decode allocates nothing beyond the restored state itself.
	RawFormatChunked = 1
	// RawFormatPageDelta is reserved: the retired page-delta object
	// (MANASHD2). It is no longer written or readable; validate rejects
	// any manifest entry that declares it (see FORMAT.md, "Raw format 2").
	RawFormatPageDelta = 2
	// RawFormatCDC: only the FRESH content-defined chunks of the logical
	// chunked stream — a small gob header followed by the fresh chunks'
	// bytes in index order. The manifest's chunk table (ShardInfo.Chunks)
	// addresses every chunk, fresh or reused, into a physically stored
	// object; restart merges them at one-chunk memory (see FORMAT.md,
	// "Raw format 3" and cdc.go).
	RawFormatCDC = 3
)

// Manifest versions. Zero-valued Version means v2 (the version field
// predates nothing: v2 blob manifests never carried one).
const (
	// ManifestV2 is the in-blob manifest of a self-contained sharded image:
	// shard blobs follow the manifest, located by Offset, with the rank
	// clock inside the shard gob.
	ManifestV2 = 0
	// ManifestV3 is the store-epoch manifest: shards live as individual
	// store objects (RefEpoch, Rank), possibly in earlier epochs, with the
	// rank clock carried per shard in the manifest itself.
	ManifestV3 = 3
	// ManifestV4 was written by the retired page-delta mode. It is no
	// longer written; a v4 manifest whose entries are all full shards still
	// loads (gob drops its page tables), one naming a delta entry fails.
	ManifestV4 = 4
	// ManifestV5 is a v3 manifest whose epoch was committed with
	// content-defined chunking enabled: entries carry chunk tables and may
	// be RawFormatCDC. Additive again — a v5 reader decodes every earlier
	// version unchanged.
	ManifestV5 = 5
)

// Manifest is the job-level header: the geometry needed to rebuild the
// lower half plus the shard table. It deliberately duplicates the JobImage
// header fields so tools can inspect an image without touching shard data.
// In v2 blob images it sits between the header and the shard data; in a
// Store each epoch has one, sealed as the epoch's commit record.
type Manifest struct {
	Algorithm          string
	Ranks              int
	PPN                int
	CaptureVT          float64
	PaddedBytesPerRank int64
	Shards             []ShardInfo

	// Version discriminates blob (v2) from store-epoch (v3) manifests.
	Version int
	// Epoch is this capture's position in the store's chain (0-based);
	// Parent is the epoch the incremental differ diffed against, -1 for a
	// full capture with no parent. Both are -1/0-valued in v2 blobs.
	Epoch  int
	Parent int
	// Tier records which storage tier this epoch was committed to
	// (netmodel.StorageTier: 0 = parallel FS, 1 = burst buffer). Stamped by
	// the ModelStore at seal time; restart read modeling charges the chain
	// against this tier. Zero in v2 blobs and on stores committed without a
	// cost model.
	Tier int
}

// encodeWorkers bounds a fan-out at GOMAXPROCS (and at the job size).
func encodeWorkers(jobs int) int {
	w := runtime.GOMAXPROCS(0)
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// fanOut runs fn(i) for i in [0, jobs) across workers goroutines. fn must be
// safe to call concurrently for distinct i.
func fanOut(jobs, workers int, fn func(i int)) {
	if workers <= 1 || jobs <= 1 {
		for i := 0; i < jobs; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= jobs {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// flatePools recycles compressors across shards — a flate.Writer carries
// megabyte-scale window state whose allocation would otherwise dominate the
// encode of small shards (hundreds of ranks x one fresh writer each) —
// KEYED BY LEVEL: a writer keeps its compression level across Reset, so a
// single pool would silently recycle a writer at whatever level it was
// created with once per-tier levels diverge. Indexed by
// level - flate.HuffmanOnly (the lowest valid level, -2).
var flatePools [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// normFlateLevel maps a codec hint to a concrete flate level: 0 (unset)
// selects the default shardCompression, anything outside flate's valid
// range is clamped to it too. NoCompression is deliberately not selectable
// — a checkpoint tier that wants raw bytes selects the `none` codec
// (codec.go), which skips flate's framing entirely.
func normFlateLevel(level int) int {
	if level == 0 || level < flate.HuffmanOnly || level > flate.BestCompression {
		return shardCompression
	}
	return level
}

// flateWriterFor pulls (or creates) a compressor at one normalized level.
func flateWriterFor(level int, dst io.Writer) (*flate.Writer, error) {
	fw, _ := flatePools[level-flate.HuffmanOnly].Get().(*flate.Writer)
	if fw == nil {
		return flate.NewWriter(dst, level)
	}
	fw.Reset(dst)
	return fw, nil
}

// putFlateWriter recycles a compressor into its level's pool.
func putFlateWriter(level int, fw *flate.Writer) {
	flatePools[level-flate.HuffmanOnly].Put(fw)
}

// ---------------------------------------------------------- streaming encode

// Streaming shard I/O. The staged pipeline's commit stage used to
// materialize every rank's raw gob and compressed blob as whole []byte
// slices, so peak encode memory scaled with the image size — the #1
// scalability cliff for MANA-scale images (hundreds of MB per rank). The
// streaming path encodes each shard straight into the store's shard writer
// through fixed-size buffers. Crucially the raw layout is CHUNKED
// (RawFormatChunked): gob frames every Encode call as one message that it
// buffers in full on both sides, so only a small header goes through gob —
// the bulk payloads (App/Proto/in-flight bytes) are written raw from the
// already-captured image, and the per-shard transient memory is the
// encoder's own bounded state:
//
//	writeShardRaw: magic + gob(small header) + payload bytes
//	  → countWriter(raw identity hash+size)
//	  → flate.Writer → countWriter(compressed identity hash+size)
//	  → pooled chunk buffer → Store.PutShardStream
//
// Concurrency is bounded in BYTES, not just workers: every open ShardWriter
// charges shardStreamFootprint against a StreamBudget, so the commit
// stage's in-flight memory never exceeds the configured budget no matter
// how many ranks or how large their shards.

// shardChunkBytes is the fixed size of the pooled staging buffer between
// the compressor and the store writer (gob emits many small writes; batching
// them keeps FileStore syscall counts sane). 512 KiB came out of a sweep of
// BenchmarkStreamingCheckpoint over 128K/256K/512K/1M: throughput climbs
// ~8% from 256K (fewer store writes per shard) and flattens past 512K,
// while the per-stream footprint stays small enough that even the
// conformance suite's deliberately tight 4 MiB budget still admits three
// concurrent streams.
const shardChunkBytes = 512 << 10

// shardStreamFootprint is the in-flight memory one open ShardWriter is
// accounted at: the pooled chunk buffer plus a conservative bound on the
// flate compressor's window/hash state and the gob encoder's scratch. It is
// an accounting constant, deliberately rounded up — the budget must bound
// real memory, so over-charging is the safe direction.
const shardStreamFootprint = shardChunkBytes + 768<<10

// DefaultStreamBudgetBytes is the commit stage's in-flight encode budget
// when the plan does not set one: room for tens of concurrent shard
// streams, far above any sane GOMAXPROCS, so the budget only throttles when
// explicitly tightened.
const DefaultStreamBudgetBytes = 64 << 20

// StreamBudget bounds the bytes of in-flight streaming-encode state and
// records the high-water mark (CheckpointStats.PeakEncodeBytes). Acquire
// blocks until the requested bytes fit; a request larger than the whole
// budget is clamped so a single stream can always make progress (the bound
// then degrades to one stream's footprint, never to a deadlock).
type StreamBudget struct {
	mu    sync.Mutex
	cond  *sync.Cond
	cap   int64
	inUse int64
	peak  int64
}

// NewStreamBudget creates a budget of capBytes (<=0 selects
// DefaultStreamBudgetBytes).
func NewStreamBudget(capBytes int64) *StreamBudget {
	if capBytes <= 0 {
		capBytes = DefaultStreamBudgetBytes
	}
	b := &StreamBudget{cap: capBytes}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Cap returns the budget's capacity in bytes.
func (b *StreamBudget) Cap() int64 { return b.cap }

// Acquire blocks until n bytes fit under the budget, then charges them.
func (b *StreamBudget) Acquire(n int64) {
	if n > b.cap {
		n = b.cap // one stream must always fit (see type doc)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.inUse+n > b.cap {
		b.cond.Wait()
	}
	b.inUse += n
	if b.inUse > b.peak {
		b.peak = b.inUse
	}
}

// Release returns n bytes to the budget.
func (b *StreamBudget) Release(n int64) {
	if n > b.cap {
		n = b.cap
	}
	b.mu.Lock()
	b.inUse -= n
	b.cond.Broadcast()
	b.mu.Unlock()
}

// TakePeak returns the high-water mark since the last TakePeak and resets
// it to the current in-use level. Commits are serialized (the coordinator's
// epoch ticket), so per-epoch peaks read cleanly off a shared budget.
func (b *StreamBudget) TakePeak() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peak
	b.peak = b.inUse
	return p
}

// countWriter accumulates an identity hash and byte count over everything
// written through it, forwarding to dst (nil dst discards — the hash-only
// identity pass).
type countWriter struct {
	dst io.Writer
	h   hash.Hash64
	n   int64
}

func newCountWriter(dst io.Writer, h hash.Hash64) *countWriter {
	return &countWriter{dst: dst, h: h}
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	if w.dst == nil {
		return len(p), nil
	}
	return w.dst.Write(p)
}

// copyShardVerified streams one stored shard blob from src to dst in
// bounded chunks, checking the copied bytes against the manifest identity
// (stored size, and the checksum over the compressed blob under the entry's
// identity hash). The check is
// what makes compaction safe to follow with GC: the copy must be proven
// byte-identical BEFORE the new epoch seals and the original becomes
// deletable — a silently corrupt copy would otherwise turn into data loss
// the moment the source epoch is reclaimed.
func copyShardVerified(dst io.Writer, src io.Reader, wantSize int64, wantSum uint64, hashID int) error {
	newHash, err := hashFactory(hashID)
	if err != nil {
		return err
	}
	cw := newCountWriter(dst, newHash())
	buf := make([]byte, shardChunkBytes)
	if _, err := io.CopyBuffer(cw, src, buf); err != nil {
		return err
	}
	if cw.n != wantSize || cw.h.Sum64() != wantSum {
		return fmt.Errorf("copied shard does not match its manifest identity (got %d bytes sum %#x, want %d bytes sum %#x)",
			cw.n, cw.h.Sum64(), wantSize, wantSum)
	}
	return nil
}

// chunkWriters pools the fixed-size staging buffers between the compressor
// and the store writer (see shardChunkBytes).
var chunkWriters = sync.Pool{}

type chunkWriter struct {
	dst io.Writer
	buf []byte
	n   int
}

func newChunkWriter(dst io.Writer) *chunkWriter {
	cw, _ := chunkWriters.Get().(*chunkWriter)
	if cw == nil {
		cw = &chunkWriter{buf: make([]byte, shardChunkBytes)}
	}
	cw.dst = dst
	cw.n = 0
	return cw
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if w.n == len(w.buf) {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
		c := copy(w.buf[w.n:], p)
		w.n += c
		p = p[c:]
	}
	return total, nil
}

func (w *chunkWriter) flush() error {
	if w.n == 0 {
		return nil
	}
	_, err := w.dst.Write(w.buf[:w.n])
	w.n = 0
	return err
}

// close flushes and recycles the buffer (the writer must not be used after).
func (w *chunkWriter) close() error {
	err := w.flush()
	w.dst = nil
	chunkWriters.Put(w)
	return err
}

// ShardSummary is what a ShardWriter reports at Close: the geometry and
// checksums the manifest's ShardInfo is stamped from. Sizes and checksums
// are computed as the bytes flow — the whole point is that no one ever held
// the shard in memory to measure it.
type ShardSummary struct {
	Size     int64  // compressed bytes that reached the store
	Checksum uint64 // identity hash over the compressed stream
	RawSize  int64  // raw gob bytes before compression
	RawSum   uint64 // identity hash over the raw (clockless) gob
}

// ShardWriter streams one rank's shard into a store stream: the rank image
// gob-encodes through the raw identity counter into the codec stage
// (pooled flate by default), whose output is checksummed and chunk-buffered
// on its way to the store writer. Nothing shard-sized is ever buffered.
// Close finalizes the codec stream, closes the store writer, and returns
// the summary.
type ShardWriter struct {
	rank  int
	dst   io.WriteCloser
	chunk *chunkWriter
	comp  *countWriter
	cw    io.WriteCloser // codec stage
	raw   *countWriter
}

// NewShardWriter opens a streaming encoder for one rank's shard over a
// store stream (typically Store.PutShardStream's writer) at the default
// compression level.
func NewShardWriter(rank int, dst io.WriteCloser) (*ShardWriter, error) {
	return NewShardWriterCodec(rank, dst, FlateCodec(0))
}

// NewShardWriterCodec opens a streaming shard encoder through an explicit
// codec. Its checksums are writeHashID's.
func NewShardWriterCodec(rank int, dst io.WriteCloser, codec Codec) (*ShardWriter, error) {
	return newShardWriter(rank, dst, codec, newWriteHash)
}

// newShardWriter opens a streaming shard encoder whose checksums come from
// newHash (compaction re-encodes under the entry's own identity hash).
func newShardWriter(rank int, dst io.WriteCloser, codec Codec, newHash func() hash.Hash64) (*ShardWriter, error) {
	w := &ShardWriter{rank: rank, dst: dst}
	w.chunk = newChunkWriter(dst)
	w.comp = newCountWriter(w.chunk, newHash())
	cw, err := codec.NewWriter(w.comp)
	if err != nil {
		return nil, fmt.Errorf("ckpt: rank %d shard compressor: %w", rank, err)
	}
	w.cw = cw
	w.raw = newCountWriter(cw, newHash())
	return w, nil
}

// Encode streams one rank image through the writer in the chunked raw
// layout. clockless zeroes ClockVT before encoding (the store-epoch
// identity contract; the clock rides in the manifest instead).
func (w *ShardWriter) Encode(ri *RankImage, clockless bool) error {
	return writeShardRaw(w.raw, ri, clockless)
}

// Close finalizes the codec stream, flushes the chunk buffer, closes the
// store writer, and reports the shard's geometry and checksums.
func (w *ShardWriter) Close() (ShardSummary, error) {
	var firstErr error
	if err := w.cw.Close(); err != nil {
		firstErr = fmt.Errorf("ckpt: compressing rank %d shard: %w", w.rank, err)
	}
	if err := w.chunk.close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("ckpt: writing rank %d shard: %w", w.rank, err)
	}
	if err := w.dst.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("ckpt: sealing rank %d shard stream: %w", w.rank, err)
	}
	return ShardSummary{
		Size:     w.comp.n,
		Checksum: w.comp.h.Sum64(),
		RawSize:  w.raw.n,
		RawSum:   w.raw.h.Sum64(),
	}, firstErr
}

// shardRawHeader is the chunked raw layout's structured prefix: everything
// in a RankImage except the bulk payloads, whose lengths ride here and
// whose bytes follow raw (App, Proto, then each in-flight message's data,
// in manifest order). Inflight entries carry their metadata with Data
// nil'd. Only this header passes through gob — it is the piece that stays
// small no matter how big the rank's state is.
type shardRawHeader struct {
	Rank         int
	Desc         Descriptor
	ClockVT      float64
	AppLen       int64
	ProtoLen     int64
	Inflight     []mpi.InflightSnapshot
	InflightLens []int64
}

// shardRawMagic heads the chunked raw stream so a decoder pointed at it
// with the wrong format fails loudly instead of gob-misparsing.
var shardRawMagic = []byte("MANASHD1")

// writeShardRaw streams one rank image in the chunked raw layout. clockless
// zeroes ClockVT (the store-epoch identity contract). Payload slices are
// written straight from the captured image — no copies, no gob buffering
// beyond the small header message.
func writeShardRaw(w io.Writer, ri *RankImage, clockless bool) error {
	hdr := shardRawHeader{
		Rank:     ri.Rank,
		Desc:     ri.Desc,
		ClockVT:  ri.ClockVT,
		AppLen:   int64(len(ri.App)),
		ProtoLen: int64(len(ri.Proto)),
	}
	if clockless {
		hdr.ClockVT = 0
	}
	if n := len(ri.Inflight); n > 0 {
		hdr.Inflight = make([]mpi.InflightSnapshot, n)
		hdr.InflightLens = make([]int64, n)
		for i, m := range ri.Inflight {
			hdr.InflightLens[i] = int64(len(m.Data))
			m.Data = nil
			hdr.Inflight[i] = m
		}
	}
	if _, err := w.Write(shardRawMagic); err != nil {
		return fmt.Errorf("ckpt: writing rank %d shard: %w", ri.Rank, err)
	}
	if err := gob.NewEncoder(w).Encode(&hdr); err != nil {
		return fmt.Errorf("ckpt: encoding rank %d shard header: %w", ri.Rank, err)
	}
	for _, payload := range [][]byte{ri.App, ri.Proto} {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("ckpt: writing rank %d shard: %w", ri.Rank, err)
		}
	}
	for _, m := range ri.Inflight {
		if _, err := w.Write(m.Data); err != nil {
			return fmt.Errorf("ckpt: writing rank %d shard: %w", ri.Rank, err)
		}
	}
	return nil
}

// readShardRaw reverses writeShardRaw. rawSize is the manifest's declared
// total raw length; the header travels through a framing-capped gob reader
// and its payload lengths are validated against rawSize — each bounded
// individually BEFORE summing, so neither a corrupted header nor an int64
// overflow of the sum can drive a multi-gigabyte allocation. src must be a
// *bufio.Reader (a gob decoder over a plain reader would buffer past the
// header and strand payload bytes in its internal reader).
func readShardRaw(src *bufio.Reader, rawSize int64) (*RankImage, error) {
	magic := make([]byte, len(shardRawMagic))
	if _, err := io.ReadFull(src, magic); err != nil {
		return nil, fmt.Errorf("reading shard header: %w", err)
	}
	if !bytes.Equal(magic, shardRawMagic) {
		return nil, fmt.Errorf("shard raw stream has bad magic %q", magic)
	}
	var hdr shardRawHeader
	if err := gob.NewDecoder(newCappedMessageReader(src, rawSize)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("decoding shard header: %w", err)
	}
	if len(hdr.InflightLens) != len(hdr.Inflight) {
		return nil, fmt.Errorf("shard header declares negative or mismatched payloads")
	}
	// Budget the declared payloads against rawSize by SUBTRACTION — a
	// running remainder cannot overflow the way a running sum of
	// attacker-chosen int64 terms can.
	remaining := rawSize
	debit := func(l int64) error {
		if l < 0 || l > remaining {
			return fmt.Errorf("shard header declares payloads beyond the manifest's %d raw bytes", rawSize)
		}
		remaining -= l
		return nil
	}
	if err := debit(hdr.AppLen); err != nil {
		return nil, err
	}
	if err := debit(hdr.ProtoLen); err != nil {
		return nil, err
	}
	for _, l := range hdr.InflightLens {
		if err := debit(l); err != nil {
			return nil, err
		}
	}
	ri := &RankImage{
		Rank:     hdr.Rank,
		Desc:     hdr.Desc,
		ClockVT:  hdr.ClockVT,
		Inflight: hdr.Inflight,
	}
	readPayload := func(n int64) ([]byte, error) {
		if n == 0 {
			return nil, nil
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(src, buf); err != nil {
			return nil, fmt.Errorf("reading shard payload: %w", err)
		}
		return buf, nil
	}
	var err error
	if ri.App, err = readPayload(hdr.AppLen); err != nil {
		return nil, err
	}
	if ri.Proto, err = readPayload(hdr.ProtoLen); err != nil {
		return nil, err
	}
	for i := range ri.Inflight {
		if ri.Inflight[i].Data, err = readPayload(hdr.InflightLens[i]); err != nil {
			return nil, err
		}
	}
	return ri, nil
}

// cappedMessageReader enforces a per-message length cap on gob's framing.
// gob allocates each message's buffer from the UNTRUSTED length prefix
// before reading a single body byte, and decodeShardStream necessarily
// feeds it bytes whose checksum has not been verified yet — without a cap,
// one corrupted prefix could demand a multi-gigabyte allocation (gob's own
// ceiling is 8 GB). This reader parses every prefix in full before handing
// any of it to gob and fails the read when the declared length exceeds the
// cap; the failure then surfaces as corruption once the checksum check
// runs. It never reads ahead of what it serves, so the caller can keep
// reading the underlying stream exactly where gob stopped.
//
// (The framing parsed here is gob's wire format for unsigned counts: one
// byte holding either the value itself (<= 0x7f) or the negated count of
// big-endian length bytes that follow.)
type cappedMessageReader struct {
	br       *bufio.Reader
	cap      int64
	stash    [9]byte // a parsed, not-yet-served message prefix
	stashLen int
	stashPos int
	body     int64 // unserved bytes of the current message body
	err      error
}

func newCappedMessageReader(br *bufio.Reader, cap int64) *cappedMessageReader {
	return &cappedMessageReader{br: br, cap: cap}
}

// fillPrefix reads and validates one whole message-length prefix.
func (r *cappedMessageReader) fillPrefix() error {
	b0, err := r.br.ReadByte()
	if err != nil {
		r.err = err
		return err
	}
	r.stash[0], r.stashLen, r.stashPos = b0, 1, 0
	var n int64
	if b0 <= 0x7f {
		n = int64(b0)
	} else {
		w := -int(int8(b0))
		if w <= 0 || w > 8 {
			r.err = fmt.Errorf("gob message prefix byte %#x invalid", b0)
			return r.err
		}
		if _, err := io.ReadFull(r.br, r.stash[1:1+w]); err != nil {
			r.err = err
			return r.err
		}
		r.stashLen = 1 + w
		for _, b := range r.stash[1 : 1+w] {
			if n > (1<<55)-1 { // next shift would overflow toward a false pass
				n = -1
				break
			}
			n = n<<8 | int64(b)
		}
	}
	if n < 0 || n > r.cap {
		r.err = fmt.Errorf("gob message of %d bytes exceeds the %d-byte shard bound", n, r.cap)
		return r.err
	}
	r.body = n
	return nil
}

func (r *cappedMessageReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if r.stashPos == r.stashLen && r.body == 0 {
		if err := r.fillPrefix(); err != nil {
			return 0, err
		}
	}
	if r.stashPos < r.stashLen {
		c := copy(p, r.stash[r.stashPos:r.stashLen])
		r.stashPos += c
		return c, nil
	}
	if int64(len(p)) > r.body {
		p = p[:r.body]
	}
	c, err := r.br.Read(p)
	r.body -= int64(c)
	return c, err
}

// ReadByte makes the reader an io.ByteReader so gob uses it directly
// instead of wrapping it in a read-ahead bufio that would strand bytes.
func (r *cappedMessageReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// hashShardClockless computes a rank image's clockless raw-stream identity
// (RawSum, RawSize) by streaming the chunked layout through a counter —
// the byte-free replacement for materializing the raw stream just to hash
// it. The stream is byte-identical to what ShardWriter.Encode later feeds
// the compressor, so the identities agree.
func hashShardClockless(ri *RankImage) (sum uint64, size int64, err error) {
	cw := newCountWriter(nil, newWriteHash())
	if err := writeShardRaw(cw, ri, true); err != nil {
		return 0, 0, err
	}
	return cw.h.Sum64(), cw.n, nil
}

// countReader accumulates an identity hash and byte count over everything
// read through it.
type countReader struct {
	src io.Reader
	h   hash.Hash64
	n   int64
}

func newCountReader(src io.Reader, h hash.Hash64) *countReader {
	return &countReader{src: src, h: h}
}

func (r *countReader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	r.h.Write(p[:n])
	r.n += int64(n)
	return n, err
}

// tallyReader counts decompressed bytes (no hashing).
type tallyReader struct {
	src io.Reader
	n   int64
}

func (r *tallyReader) Read(p []byte) (int, error) {
	n, err := r.src.Read(p)
	r.n += int64(n)
	return n, err
}

// decodeShardStream decodes one shard from a store stream without ever
// materializing the compressed blob or the raw stream: the compressed
// bytes are checksummed as they are read, decompression feeds the raw
// decoder directly, and the raw byte count is tallied on the way through.
// rawFormat selects the raw layout (ShardInfo.RawFormat); the chunked
// layout allocates nothing beyond the restored state itself, while the
// legacy gob layout necessarily buffers one whole message. The whole
// object is always drained so the checksum covers every stored byte —
// trailing garbage after the compressed stream is corruption, exactly as
// it was when the blob was checksummed at rest.
//
// wantSum is checked under hashID, the entry's identity hash.
//
// A checksum mismatch wins over any decode error: corrupted bytes produce
// arbitrary flate/gob failures, and attributing them as corruption (not as
// a format bug) is what the torn-write diagnostics rely on.
func decodeShardStream(src io.Reader, rawSize int64, wantSum uint64, hashID, rawFormat int, codec Codec) (*RankImage, error) {
	if rawSize < 0 {
		return nil, fmt.Errorf("negative raw size %d", rawSize)
	}
	if codec == nil {
		codec = FlateCodec(0)
	}
	newHash, err := hashFactory(hashID)
	if err != nil {
		return nil, err
	}
	cr := newCountReader(src, newHash())
	fr := codec.NewReader(cr)
	defer fr.Close()
	tr := &tallyReader{src: fr}

	var ri *RankImage
	var decErr error
	switch rawFormat {
	case RawFormatChunked:
		// The bufio layer reads ahead of the header's gob decoder but stays
		// on this side of the tally, so the final drained count is exact.
		br := bufio.NewReader(tr)
		ri, decErr = readShardRaw(br, rawSize)
	case RawFormatGob:
		// Legacy whole-gob shards decode pre-checksum too, so their message
		// lengths are bounded the same way (rawSize, from the validated
		// manifest) — a bit-rotted flate stream cannot demand gob's 8 GB.
		ri = &RankImage{}
		decErr = gob.NewDecoder(newCappedMessageReader(bufio.NewReader(tr), rawSize)).Decode(ri)
		if decErr != nil {
			decErr = fmt.Errorf("decoding: %w", decErr)
		}
	default:
		decErr = fmt.Errorf("unsupported raw shard format %d", rawFormat)
	}
	if decErr == nil {
		if _, err := io.Copy(io.Discard, tr); err != nil {
			decErr = fmt.Errorf("decompressing: %w", err)
		}
	}
	// Drain the remaining stored bytes (flate stops at its final block) so
	// the checksum is over the whole shard object.
	if _, err := io.Copy(io.Discard, cr); err != nil && decErr == nil {
		decErr = fmt.Errorf("reading shard: %w", err)
	}
	if got := cr.h.Sum64(); got != wantSum {
		return nil, fmt.Errorf("shard corrupted (checksum %x, want %x)", got, wantSum)
	}
	if decErr != nil {
		return nil, decErr
	}
	if tr.n != rawSize {
		return nil, fmt.Errorf("raw size mismatch: decompressed %d bytes, manifest says %d", tr.n, rawSize)
	}
	return ri, nil
}

// compressShard flate-compresses one rank's raw shard gob, recycling
// writers through the level-keyed pools.
func compressShard(rank int, raw []byte) ([]byte, error) {
	var out bytes.Buffer
	out.Grow(len(raw)/4 + 64)
	fw, err := flateWriterFor(shardCompression, &out)
	if err != nil {
		return nil, fmt.Errorf("ckpt: rank %d shard compressor: %w", rank, err)
	}
	if _, err := fw.Write(raw); err != nil {
		return nil, fmt.Errorf("ckpt: compressing rank %d shard: %w", rank, err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("ckpt: compressing rank %d shard: %w", rank, err)
	}
	putFlateWriter(shardCompression, fw)
	return out.Bytes(), nil
}

// encodeShard serializes one rank image: gob, then flate. Returns the
// compressed blob and the raw (pre-compression) gob size.
func encodeShard(ri *RankImage) ([]byte, int64, error) {
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(ri); err != nil {
		return nil, 0, fmt.Errorf("ckpt: encoding rank %d shard: %w", ri.Rank, err)
	}
	blob, err := compressShard(ri.Rank, raw.Bytes())
	if err != nil {
		return nil, 0, err
	}
	return blob, int64(raw.Len()), nil
}

// shardPreallocCap bounds the decode buffer preallocated from a manifest's
// RawSize. The manifest is attacker-ish input (a corrupted image must fail
// cleanly); trusting an absurd RawSize would turn a flipped bit into a
// multi-gigabyte allocation. Larger shards still decode — the buffer grows
// as the decompressor actually produces bytes.
const shardPreallocCap = 8 << 20

// decodeShard reverses encodeShard. rawSize is the manifest's declared
// pre-compression size; a mismatch with what the decompressor produces is
// reported as corruption.
func decodeShard(blob []byte, rawSize int64) (*RankImage, error) {
	if rawSize < 0 {
		return nil, fmt.Errorf("negative raw size %d", rawSize)
	}
	prealloc := rawSize
	if prealloc > shardPreallocCap {
		prealloc = shardPreallocCap
	}
	fr := flate.NewReader(bytes.NewReader(blob))
	defer fr.Close()
	raw := bytes.NewBuffer(make([]byte, 0, prealloc))
	if _, err := io.Copy(raw, fr); err != nil {
		return nil, fmt.Errorf("decompressing: %w", err)
	}
	if int64(raw.Len()) != rawSize {
		return nil, fmt.Errorf("raw size mismatch: decompressed %d bytes, manifest says %d", raw.Len(), rawSize)
	}
	var ri RankImage
	if err := gob.NewDecoder(raw).Decode(&ri); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	return &ri, nil
}

// checksumOf is the FNV-1a checksum of the blob formats (v1/v2 images) and
// the manifest record; store shard identities go through HashID instead.
func checksumOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Encode serializes the job image in the v2 sharded format, fanning the
// per-rank shard encoding out across GOMAXPROCS workers. The output is
// deterministic: shards land in rank order regardless of worker scheduling.
func (ji *JobImage) Encode() ([]byte, error) {
	n := len(ji.Images)
	shards := make([][]byte, n)
	raws := make([]int64, n)
	errs := make([]error, n)
	fanOut(n, encodeWorkers(n), func(i int) {
		shards[i], raws[i], errs[i] = encodeShard(&ji.Images[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	man := Manifest{
		Algorithm:          ji.Algorithm,
		Ranks:              ji.Ranks,
		PPN:                ji.PPN,
		CaptureVT:          ji.CaptureVT,
		PaddedBytesPerRank: ji.PaddedBytesPerRank,
		Shards:             make([]ShardInfo, n),
	}
	var off, total int64
	for i := range shards {
		man.Shards[i] = ShardInfo{
			Rank:     ji.Images[i].Rank,
			Offset:   off,
			Size:     int64(len(shards[i])),
			RawSize:  raws[i],
			Checksum: checksumOf(shards[i]),
		}
		off += int64(len(shards[i]))
		total += int64(len(shards[i]))
	}

	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(&man); err != nil {
		return nil, fmt.Errorf("ckpt: encoding image manifest: %w", err)
	}

	out := make([]byte, 0, 20+head.Len()+int(total))
	out = append(out, imageMagicV2...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(head.Len()))
	out = append(out, u32[:]...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], checksumOf(head.Bytes()))
	out = append(out, u64[:]...)
	out = append(out, head.Bytes()...)
	for _, s := range shards {
		out = append(out, s...)
	}
	return out, nil
}

// EncodeV1 serializes the job image in the legacy monolithic v1 format: a
// magic/version header, an FNV-1a integrity checksum, and one gob payload.
// Kept as the backward-compatibility reference (old images must keep
// decoding) and as the serial baseline for the image-pipeline benchmarks.
func (ji *JobImage) EncodeV1() ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ji); err != nil {
		return nil, fmt.Errorf("ckpt: encoding job image: %w", err)
	}
	out := make([]byte, 0, len(imageMagicV1)+8+payload.Len())
	out = append(out, imageMagicV1...)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], checksumOf(payload.Bytes()))
	out = append(out, sum[:]...)
	out = append(out, payload.Bytes()...)
	return out, nil
}

// DecodeJobImage deserializes a job image produced by Encode (v2 sharded) or
// EncodeV1 (legacy monolithic), verifying headers and integrity checksums.
// Corruption in a v2 image is attributed to the specific rank shard.
func DecodeJobImage(data []byte) (*JobImage, error) {
	switch {
	case len(data) >= len(imageMagicV2) && bytes.Equal(data[:len(imageMagicV2)], imageMagicV2):
		return decodeV2(data)
	case len(data) >= len(imageMagicV1) && bytes.Equal(data[:len(imageMagicV1)], imageMagicV1):
		return decodeV1(data)
	case len(data) < len(imageMagicV1)+8:
		return nil, fmt.Errorf("ckpt: image truncated (%d bytes)", len(data))
	}
	return nil, fmt.Errorf("ckpt: not a checkpoint image (bad magic)")
}

func decodeV1(data []byte) (*JobImage, error) {
	if len(data) < len(imageMagicV1)+8 {
		return nil, fmt.Errorf("ckpt: image truncated (%d bytes)", len(data))
	}
	want := binary.LittleEndian.Uint64(data[len(imageMagicV1):])
	payload := data[len(imageMagicV1)+8:]
	if got := checksumOf(payload); got != want {
		return nil, fmt.Errorf("ckpt: image corrupted (checksum %x, want %x)", got, want)
	}
	var ji JobImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ji); err != nil {
		return nil, fmt.Errorf("ckpt: decoding job image: %w", err)
	}
	return &ji, nil
}

// DecodeManifest reads a v2 image's manifest without touching shard data.
// It fails on v1 images (they have no manifest) and on header corruption.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < 20 || !bytes.Equal(data[:len(imageMagicV2)], imageMagicV2) {
		if len(data) >= len(imageMagicV1) && bytes.Equal(data[:len(imageMagicV1)], imageMagicV1) {
			return nil, fmt.Errorf("ckpt: v1 image has no manifest")
		}
		return nil, fmt.Errorf("ckpt: not a v2 checkpoint image")
	}
	headLen := int64(binary.LittleEndian.Uint32(data[8:12]))
	wantSum := binary.LittleEndian.Uint64(data[12:20])
	if int64(len(data)) < 20+headLen {
		return nil, fmt.Errorf("ckpt: image truncated (manifest needs %d bytes, have %d)", 20+headLen, len(data))
	}
	head := data[20 : 20+headLen]
	if got := checksumOf(head); got != wantSum {
		return nil, fmt.Errorf("ckpt: image manifest corrupted (checksum %x, want %x)", got, wantSum)
	}
	var man Manifest
	if err := gob.NewDecoder(bytes.NewReader(head)).Decode(&man); err != nil {
		return nil, fmt.Errorf("ckpt: decoding image manifest: %w", err)
	}
	if err := man.validate(int64(len(data)) - 20 - headLen); err != nil {
		return nil, err
	}
	return &man, nil
}

// validate sanity-checks a decoded manifest's shard table so that corrupted
// or hostile metadata fails with a diagnostic instead of driving later
// slicing or allocation off a cliff. shardDataLen is the length of the shard
// data region the offsets index (pass a negative value to skip the bounds
// checks, e.g. for store manifests whose shards live in per-rank objects).
func (man *Manifest) validate(shardDataLen int64) error {
	if man.Ranks < 0 {
		return fmt.Errorf("ckpt: manifest declares %d ranks", man.Ranks)
	}
	if len(man.Shards) != man.Ranks {
		return fmt.Errorf("ckpt: manifest lists %d shards for %d ranks", len(man.Shards), man.Ranks)
	}
	for i := range man.Shards {
		si := &man.Shards[i]
		// Every producer writes the shard table in rank order (shard i IS
		// rank i), and consumers index job images by rank; a permuted or
		// duplicated table would silently restore the wrong rank's state,
		// so identity is enforced rather than assumed.
		if si.Rank != i {
			return fmt.Errorf("ckpt: shard %d names rank %d (table must be in rank order)", i, si.Rank)
		}
		if si.Size < 0 || si.RawSize < 0 || si.Offset < 0 {
			return fmt.Errorf("ckpt: rank %d shard has negative geometry (offset %d, size %d, raw %d)",
				si.Rank, si.Offset, si.Size, si.RawSize)
		}
		if si.Offset > math.MaxInt64-si.Size {
			return fmt.Errorf("ckpt: rank %d shard geometry overflows (offset %d, size %d)",
				si.Rank, si.Offset, si.Size)
		}
		if shardDataLen >= 0 && si.Offset+si.Size > shardDataLen {
			return fmt.Errorf("ckpt: rank %d shard [%d:%d) exceeds %d bytes of shard data",
				si.Rank, si.Offset, si.Offset+si.Size, shardDataLen)
		}
		if man.Version >= ManifestV3 && (si.RefEpoch < 0 || si.RefEpoch > man.Epoch) {
			return fmt.Errorf("ckpt: rank %d shard references epoch %d from epoch %d",
				si.Rank, si.RefEpoch, man.Epoch)
		}
		if si.RawFormat < RawFormatGob || si.RawFormat > RawFormatCDC {
			return fmt.Errorf("ckpt: rank %d shard declares unknown raw format %d", si.Rank, si.RawFormat)
		}
		if si.CodecID < CodecFlate || si.CodecID > CodecNone {
			return fmt.Errorf("ckpt: rank %d shard declares unknown codec %d", si.Rank, si.CodecID)
		}
		if _, err := hashFactory(si.HashID); err != nil {
			return fmt.Errorf("ckpt: rank %d shard declares unknown identity hash %d", si.Rank, si.HashID)
		}
		if man.Version < ManifestV3 && si.HashID != HashFNV1a {
			// Blob images are checksummed with checksumOf (FNV-1a) only.
			return fmt.Errorf("ckpt: rank %d blob-image shard declares identity hash %s (blob images are fnv1a only)",
				si.Rank, HashName(si.HashID))
		}
		if si.RawFormat == RawFormatPageDelta {
			return fmt.Errorf("ckpt: rank %d shard is a page delta (raw format 2), which is no longer readable; re-checkpoint the chain into an empty store",
				si.Rank)
		}
		if si.DeltaRawSize < 0 {
			return fmt.Errorf("ckpt: rank %d shard has negative stored-stream size %d", si.Rank, si.DeltaRawSize)
		}
		if si.RawFormat == RawFormatCDC && len(si.Chunks) == 0 {
			// The streaming writer always emits at least the magic+header,
			// so the logical stream is never empty and a CDC entry without a
			// chunk table is unreconstructable.
			return fmt.Errorf("ckpt: rank %d cdc shard has no chunk table", si.Rank)
		}
		if len(si.Chunks) > 0 {
			// Any recorded chunk table must tile the logical stream exactly,
			// within the chunker's size bounds (the merge buffers one chunk,
			// so an oversized Len would drive an unbounded allocation), with
			// every source address non-negative and no newer than the epoch
			// that stored the entry.
			var total int64
			for j := range si.Chunks {
				c := &si.Chunks[j]
				if c.Len <= 0 || c.Len > CDCMaxChunkBytes {
					return fmt.Errorf("ckpt: rank %d chunk %d has length %d (want 1..%d)",
						si.Rank, j, c.Len, int64(CDCMaxChunkBytes))
				}
				if c.SrcOff < 0 || c.SrcRank < 0 || c.SrcEpoch < 0 || c.SrcEpoch > si.RefEpoch {
					return fmt.Errorf("ckpt: rank %d chunk %d has source epoch %d rank %d offset %d (stored in epoch %d)",
						si.Rank, j, c.SrcEpoch, c.SrcRank, c.SrcOff, si.RefEpoch)
				}
				if total > math.MaxInt64-c.Len {
					return fmt.Errorf("ckpt: rank %d chunk table overflows", si.Rank)
				}
				total += c.Len
			}
			if total != si.RawSize {
				return fmt.Errorf("ckpt: rank %d chunk table covers %d bytes of a %d-byte stream",
					si.Rank, total, si.RawSize)
			}
		}
	}
	return nil
}

// manifestRecordMagic heads a standalone manifest record — the per-epoch
// commit file a Store seals each capture with (see FORMAT.md). The layout
// after the magic matches the in-blob v2 header: u32 gob length, u64 FNV-1a
// checksum, manifest gob.
var manifestRecordMagic = []byte("MANAMFT3")

// EncodeManifestRecord serializes a manifest as a standalone, checksummed
// record (the store's per-epoch manifest object).
func EncodeManifestRecord(man *Manifest) ([]byte, error) {
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(man); err != nil {
		return nil, fmt.Errorf("ckpt: encoding manifest record: %w", err)
	}
	out := make([]byte, 0, 20+head.Len())
	out = append(out, manifestRecordMagic...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(head.Len()))
	out = append(out, u32[:]...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], checksumOf(head.Bytes()))
	out = append(out, u64[:]...)
	out = append(out, head.Bytes()...)
	return out, nil
}

// DecodeManifestRecord reverses EncodeManifestRecord, verifying the magic
// and checksum and validating the shard table.
func DecodeManifestRecord(data []byte) (*Manifest, error) {
	if len(data) < 20 || !bytes.Equal(data[:len(manifestRecordMagic)], manifestRecordMagic) {
		return nil, fmt.Errorf("ckpt: not a manifest record (%d bytes)", len(data))
	}
	headLen := int64(binary.LittleEndian.Uint32(data[8:12]))
	wantSum := binary.LittleEndian.Uint64(data[12:20])
	if int64(len(data)) != 20+headLen {
		return nil, fmt.Errorf("ckpt: manifest record truncated (needs %d bytes, have %d)", 20+headLen, len(data))
	}
	head := data[20:]
	if got := checksumOf(head); got != wantSum {
		return nil, fmt.Errorf("ckpt: manifest record corrupted (checksum %x, want %x)", got, wantSum)
	}
	var man Manifest
	if err := gob.NewDecoder(bytes.NewReader(head)).Decode(&man); err != nil {
		return nil, fmt.Errorf("ckpt: decoding manifest record: %w", err)
	}
	if err := man.validate(-1); err != nil {
		return nil, err
	}
	return &man, nil
}

// shardBlob slices one shard's compressed blob out of a v2 image and
// verifies its checksum.
func shardBlob(data []byte, man *Manifest, i int) ([]byte, error) {
	si := &man.Shards[i]
	base := int64(20) + int64(binary.LittleEndian.Uint32(data[8:12]))
	lo, hi := base+si.Offset, base+si.Offset+si.Size
	if lo < base || hi > int64(len(data)) || lo > hi {
		return nil, fmt.Errorf("shard out of bounds [%d:%d) of %d", lo, hi, len(data))
	}
	blob := data[lo:hi]
	if got := checksumOf(blob); got != si.Checksum {
		return nil, fmt.Errorf("shard corrupted (checksum %x, want %x)", got, si.Checksum)
	}
	return blob, nil
}

func decodeV2(data []byte) (*JobImage, error) {
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, err
	}
	ji := &JobImage{
		Algorithm:          man.Algorithm,
		Ranks:              man.Ranks,
		PPN:                man.PPN,
		CaptureVT:          man.CaptureVT,
		PaddedBytesPerRank: man.PaddedBytesPerRank,
		Images:             make([]RankImage, len(man.Shards)),
	}
	errs := make([]error, len(man.Shards))
	fanOut(len(man.Shards), encodeWorkers(len(man.Shards)), func(i int) {
		blob, err := shardBlob(data, man, i)
		if err != nil {
			errs[i] = err
			return
		}
		ri, err := decodeShard(blob, man.Shards[i].RawSize)
		if err != nil {
			errs[i] = err
			return
		}
		if ri.Rank != man.Shards[i].Rank {
			errs[i] = fmt.Errorf("shard content is for rank %d", ri.Rank)
			return
		}
		ji.Images[i] = *ri
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ckpt: rank %d shard: %w", man.Shards[i].Rank, err)
		}
	}
	return ji, nil
}

// ShardFault names one corrupted or undecodable shard in an image.
type ShardFault struct {
	Rank int
	Err  error
}

// VerifyImage checks an image's integrity shard by shard without requiring
// the whole job to decode: every v2 shard's checksum is validated and the
// shard is trially decoded; faults are attributed per rank. For v1 images the
// single whole-payload checksum is all there is, so a corrupted v1 image
// yields one fault with Rank -1. A structural error (bad magic, corrupted
// manifest) is returned as err instead.
func VerifyImage(data []byte) ([]ShardFault, error) {
	if len(data) >= len(imageMagicV1) && bytes.Equal(data[:len(imageMagicV1)], imageMagicV1) {
		if _, err := decodeV1(data); err != nil {
			return []ShardFault{{Rank: -1, Err: err}}, nil
		}
		return nil, nil
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, err
	}
	faults := make([]error, len(man.Shards))
	fanOut(len(man.Shards), encodeWorkers(len(man.Shards)), func(i int) {
		blob, err := shardBlob(data, man, i)
		if err != nil {
			faults[i] = err
			return
		}
		if _, err := decodeShard(blob, man.Shards[i].RawSize); err != nil {
			faults[i] = err
		}
	})
	var out []ShardFault
	for i, err := range faults {
		if err != nil {
			out = append(out, ShardFault{Rank: man.Shards[i].Rank, Err: err})
		}
	}
	return out, nil
}

// ShardRange returns the byte range [lo, hi) a rank's compressed shard
// occupies within an encoded v2 image. Tools (and the conformance engine's
// per-shard corruption probe) use it to address shard bytes directly.
func ShardRange(data []byte, rank int) (lo, hi int64, err error) {
	man, err := DecodeManifest(data)
	if err != nil {
		return 0, 0, err
	}
	base := int64(20) + int64(binary.LittleEndian.Uint32(data[8:12]))
	for i := range man.Shards {
		if si := &man.Shards[i]; si.Rank == rank {
			return base + si.Offset, base + si.Offset + si.Size, nil
		}
	}
	return 0, 0, fmt.Errorf("ckpt: image has no rank %d", rank)
}

// ExtractRank decodes a single rank's image from an encoded job image. For
// v2 images only that rank's shard is read and decompressed; for v1 images
// the whole image must decode first.
func ExtractRank(data []byte, rank int) (*RankImage, error) {
	if len(data) >= len(imageMagicV1) && bytes.Equal(data[:len(imageMagicV1)], imageMagicV1) {
		ji, err := decodeV1(data)
		if err != nil {
			return nil, err
		}
		for i := range ji.Images {
			if ji.Images[i].Rank == rank {
				return &ji.Images[i], nil
			}
		}
		return nil, fmt.Errorf("ckpt: image has no rank %d", rank)
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, err
	}
	for i := range man.Shards {
		if man.Shards[i].Rank != rank {
			continue
		}
		blob, err := shardBlob(data, man, i)
		if err != nil {
			return nil, fmt.Errorf("ckpt: rank %d shard: %w", rank, err)
		}
		ri, err := decodeShard(blob, man.Shards[i].RawSize)
		if err != nil {
			return nil, fmt.Errorf("ckpt: rank %d shard: %w", rank, err)
		}
		return ri, nil
	}
	return nil, fmt.Errorf("ckpt: image has no rank %d", rank)
}
