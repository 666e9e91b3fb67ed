package ckpt

// Checkpoint stores: where the staged pipeline's commit stage lands.
//
// A Store holds a chain of capture epochs. Each epoch has one sealed
// manifest (v3, see FORMAT.md) and zero or more shard objects — zero when
// every rank's state was unchanged and all shards are references into
// earlier epochs. Sealing order is the commit contract: shards first, the
// manifest last, so a crash mid-commit leaves a dangling unsealed epoch that
// Epochs() simply does not report.
//
// Three implementations:
//
//   - MemStore: a map; the default commit target when a plan enables the
//     staged pipeline without naming a store.
//   - FileStore: one directory per epoch, one file per fresh shard plus the
//     sealed manifest — the on-disk layout a real MANA-style per-rank image
//     tree collapses into.
//   - ModelStore: a decorator that meters every write through the netmodel
//     storage parameters, turning commit traffic into the virtual-time
//     write cost the coordinator charges as stall (synchronous captures) or
//     overlap (asynchronous ones).

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mana/internal/netmodel"
)

// Store is the commit target of the checkpoint pipeline: a keyed object
// space for shard objects plus a sealed manifest per epoch. Shard objects
// are STREAMED: the encoder writes through PutShardStream and restart reads
// through OpenShard, so neither side ever needs a whole-shard []byte. The
// blob methods (PutShard/GetShard) remain as thin adapters over the streams
// for tools and tests that already hold the bytes.
type Store interface {
	// PutShardStream opens a streaming writer for one rank's shard object
	// under (epoch, rank). The object becomes readable once the writer is
	// closed; an abandoned (never-closed) stream in an unsealed epoch is an
	// aborted commit, invisible behind the manifest-sealed-last contract.
	PutShardStream(epoch, rank int) (io.WriteCloser, error)
	// OpenShard opens a streaming reader over a shard object's stored bytes.
	OpenShard(epoch, rank int) (io.ReadCloser, error)
	// PutShard stores one rank's compressed shard blob under (epoch, rank) —
	// an adapter over PutShardStream.
	PutShard(epoch, rank int, blob []byte) error
	// GetShard retrieves a whole shard object — an adapter over OpenShard.
	GetShard(epoch, rank int) ([]byte, error)
	// PutManifest seals an epoch; a Store reports an epoch from Epochs only
	// once its manifest is committed.
	PutManifest(epoch int, man *Manifest) error
	// GetManifest retrieves a sealed epoch's manifest.
	GetManifest(epoch int) (*Manifest, error)
	// Epochs lists sealed epochs in ascending order.
	Epochs() ([]int, error)
	// DeleteShard removes one shard object, returning the stored bytes
	// reclaimed. Deleting an absent shard is not an error (deletion is
	// idempotent so a GC pass interrupted mid-epoch can simply run again).
	DeleteShard(epoch, rank int) (int64, error)
	// DeleteEpoch removes an entire epoch — its manifest (unsealing it
	// FIRST, so a crash mid-delete can never leave a sealed manifest whose
	// shard bytes are gone) and then its shard objects — returning the
	// total bytes reclaimed. Deleting an absent epoch reclaims zero.
	DeleteEpoch(epoch int) (int64, error)
}

// Sweeper is the optional debris-collection side of a Store: removal of
// unsealed (aborted) epoch leftovers that Epochs() hides but that otherwise
// accumulate forever. All three built-in stores implement it; GCStore uses
// it when present.
type Sweeper interface {
	// SweepUnsealed removes every unsealed epoch's leftovers with an epoch
	// number strictly below `before`, returning the bytes and object count
	// reclaimed. The bound is what makes the sweep safe to run while a
	// commit is in flight: an in-flight epoch is always numbered at or
	// above the newest sealed epoch + 1, while failed-commit debris is
	// always numbered below a later successful seal.
	SweepUnsealed(before int) (bytes int64, objects int, err error)
}

// putShardBlob adapts a blob write onto a store's streaming API.
func putShardBlob(s Store, epoch, rank int, blob []byte) error {
	w, err := s.PutShardStream(epoch, rank)
	if err != nil {
		return err
	}
	if _, err := w.Write(blob); err != nil {
		//lint:allow closecheck write already failed; the write error is the one to surface
		w.Close()
		return fmt.Errorf("ckpt: writing epoch %d rank %d shard: %w", epoch, rank, err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("ckpt: writing epoch %d rank %d shard: %w", epoch, rank, err)
	}
	return nil
}

// getShardBlob adapts a whole-object read onto a store's streaming API. The
// returned slice is private to the caller.
func getShardBlob(s Store, epoch, rank int) ([]byte, error) {
	rc, err := s.OpenShard(epoch, rank)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	blob, err := io.ReadAll(rc)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading epoch %d rank %d shard: %w", epoch, rank, err)
	}
	return blob, nil
}

// ---------------------------------------------------------------- MemStore

// MemStore is an in-memory Store. Safe for concurrent use.
type MemStore struct {
	mu     sync.Mutex
	shards map[[2]int][]byte
	mans   map[int][]byte // sealed manifests, kept encoded (decode = private copy)
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{shards: make(map[[2]int][]byte), mans: make(map[int][]byte)}
}

// memShardWriter accumulates a shard stream and installs it at Close.
type memShardWriter struct {
	s           *MemStore
	epoch, rank int
	buf         bytes.Buffer
	closed      bool
}

func (w *memShardWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *memShardWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.s.mu.Lock()
	w.s.shards[[2]int{w.epoch, w.rank}] = w.buf.Bytes()
	w.s.mu.Unlock()
	return nil
}

// PutShardStream implements Store: bytes accumulate privately and become
// visible atomically at Close.
func (s *MemStore) PutShardStream(epoch, rank int) (io.WriteCloser, error) {
	return &memShardWriter{s: s, epoch: epoch, rank: rank}, nil
}

// OpenShard implements Store. The stored slice is immutable once installed
// (writers hand over their private buffer; blob puts copy), so the reader
// serves it directly.
func (s *MemStore) OpenShard(epoch, rank int) (io.ReadCloser, error) {
	s.mu.Lock()
	blob, ok := s.shards[[2]int{epoch, rank}]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ckpt: store has no shard for epoch %d rank %d", epoch, rank)
	}
	return io.NopCloser(bytes.NewReader(blob)), nil
}

// PutShard implements Store. The stream writer's private buffer is the
// copy, so later mutation of blob cannot reach the stored object.
func (s *MemStore) PutShard(epoch, rank int, blob []byte) error {
	return putShardBlob(s, epoch, rank, blob)
}

// GetShard implements Store. The blob is copied out: callers may mutate
// what they get back (corruption probes do) without corrupting the stored
// shard that later epochs reference.
func (s *MemStore) GetShard(epoch, rank int) ([]byte, error) {
	return getShardBlob(s, epoch, rank)
}

// PutManifest implements Store.
func (s *MemStore) PutManifest(epoch int, man *Manifest) error {
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mans[epoch] = rec
	return nil
}

// GetManifest implements Store.
func (s *MemStore) GetManifest(epoch int) (*Manifest, error) {
	s.mu.Lock()
	rec, ok := s.mans[epoch]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ckpt: store has no epoch %d", epoch)
	}
	return DecodeManifestRecord(rec)
}

// Epochs implements Store.
func (s *MemStore) Epochs() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.mans))
	for e := range s.mans {
		out = append(out, e)
	}
	sort.Ints(out)
	return out, nil
}

// DeleteShard implements Store.
func (s *MemStore) DeleteShard(epoch, rank int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{epoch, rank}
	n := int64(len(s.shards[key]))
	delete(s.shards, key)
	return n, nil
}

// DeleteEpoch implements Store: the manifest entry goes first (the epoch
// stops being sealed), then its shard objects.
func (s *MemStore) DeleteEpoch(epoch int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reclaimed := int64(len(s.mans[epoch]))
	delete(s.mans, epoch)
	for key, blob := range s.shards {
		if key[0] == epoch {
			reclaimed += int64(len(blob))
			delete(s.shards, key)
		}
	}
	return reclaimed, nil
}

// SweepUnsealed implements Sweeper: shard objects parked under an epoch
// that never sealed (and never will — it is numbered below a later seal)
// are aborted-commit debris.
func (s *MemStore) SweepUnsealed(before int) (int64, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bytes int64
	var objects int
	for key, blob := range s.shards {
		if key[0] >= before {
			continue
		}
		if _, sealed := s.mans[key[0]]; sealed {
			continue
		}
		bytes += int64(len(blob))
		objects++
		delete(s.shards, key)
	}
	return bytes, objects, nil
}

// --------------------------------------------------------------- FileStore

// FileStore keeps each epoch in its own directory:
//
//	<root>/epoch-000000/rank-000000.shard   (fresh shards only)
//	<root>/epoch-000000/manifest.ckpt       (sealed last)
//
// An epoch directory without a manifest is an aborted commit and is ignored.
type FileStore struct {
	Root string
}

// NewFileStore opens (creating if needed) a file store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store root: %w", err)
	}
	return &FileStore{Root: dir}, nil
}

// EpochDir returns the directory of one epoch.
func (s *FileStore) EpochDir(epoch int) string {
	return filepath.Join(s.Root, fmt.Sprintf("epoch-%06d", epoch))
}

// ShardPath returns the file a fresh shard is written to. Conformance's
// corruption probes use it to damage specific shards in place.
func (s *FileStore) ShardPath(epoch, rank int) string {
	return filepath.Join(s.EpochDir(epoch), fmt.Sprintf("rank-%06d.shard", rank))
}

// ManifestPath returns an epoch's manifest file.
func (s *FileStore) ManifestPath(epoch int) string {
	return filepath.Join(s.EpochDir(epoch), "manifest.ckpt")
}

// PutShardStream implements Store: the shard streams straight into its
// file. A crash mid-stream leaves a torn file, but only inside an unsealed
// epoch — the manifest-sealed-last contract keeps it invisible, and
// VerifyStore attributes a post-seal truncation to the exact (epoch, rank).
func (s *FileStore) PutShardStream(epoch, rank int) (io.WriteCloser, error) {
	if err := os.MkdirAll(s.EpochDir(epoch), 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating epoch %d dir: %w", epoch, err)
	}
	f, err := os.Create(s.ShardPath(epoch, rank))
	if err != nil {
		return nil, fmt.Errorf("ckpt: creating epoch %d rank %d shard: %w", epoch, rank, err)
	}
	return f, nil
}

// OpenShard implements Store.
func (s *FileStore) OpenShard(epoch, rank int) (io.ReadCloser, error) {
	f, err := os.Open(s.ShardPath(epoch, rank))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading epoch %d rank %d shard: %w", epoch, rank, err)
	}
	return f, nil
}

// PutShard implements Store.
func (s *FileStore) PutShard(epoch, rank int, blob []byte) error {
	return putShardBlob(s, epoch, rank, blob)
}

// GetShard implements Store.
func (s *FileStore) GetShard(epoch, rank int) ([]byte, error) {
	return getShardBlob(s, epoch, rank)
}

// PutManifest implements Store. The seal must be atomic — Epochs() treats
// the manifest file's existence as "sealed", so a crash mid-write may not
// leave a partial manifest behind; the record is written to a temp file and
// renamed into place.
func (s *FileStore) PutManifest(epoch int, man *Manifest) error {
	rec, err := EncodeManifestRecord(man)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.EpochDir(epoch), 0o755); err != nil {
		return fmt.Errorf("ckpt: creating epoch %d dir: %w", epoch, err)
	}
	tmp := s.ManifestPath(epoch) + ".tmp"
	if err := os.WriteFile(tmp, rec, 0o644); err != nil {
		return fmt.Errorf("ckpt: sealing epoch %d manifest: %w", epoch, err)
	}
	if err := os.Rename(tmp, s.ManifestPath(epoch)); err != nil {
		return fmt.Errorf("ckpt: sealing epoch %d manifest: %w", epoch, err)
	}
	return nil
}

// GetManifest implements Store.
func (s *FileStore) GetManifest(epoch int) (*Manifest, error) {
	rec, err := os.ReadFile(s.ManifestPath(epoch))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading epoch %d manifest: %w", epoch, err)
	}
	man, err := DecodeManifestRecord(rec)
	if err != nil {
		return nil, fmt.Errorf("ckpt: epoch %d: %w", epoch, err)
	}
	return man, nil
}

// Epochs implements Store.
func (s *FileStore) Epochs() ([]int, error) {
	all, err := s.epochDirs()
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range all {
		if _, err := os.Stat(s.ManifestPath(e)); err != nil {
			continue // unsealed (aborted) epoch
		}
		out = append(out, e)
	}
	return out, nil
}

// epochDirs lists every epoch directory under the root, sealed or not, in
// ascending order.
func (s *FileStore) epochDirs() ([]int, error) {
	ents, err := os.ReadDir(s.Root)
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing store root: %w", err)
	}
	var out []int
	for _, ent := range ents {
		var e int
		if !ent.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(ent.Name(), "epoch-%d", &e); err != nil {
			continue
		}
		// Strict match: Sscanf tolerates trailing garbage and odd widths,
		// so a stray "epoch-000003.bak" would otherwise alias epoch 3 and
		// surface it twice.
		if ent.Name() != fmt.Sprintf("epoch-%06d", e) {
			continue
		}
		out = append(out, e)
	}
	sort.Ints(out)
	return out, nil
}

// DeleteShard implements Store.
func (s *FileStore) DeleteShard(epoch, rank int) (int64, error) {
	n, _, err := removeSized(s.ShardPath(epoch, rank))
	return n, err
}

// DeleteEpoch implements Store. Order is the crash-safety contract: the
// manifest is removed FIRST, unsealing the epoch, and only then its shard
// files and directory. A crash at any point leaves either the sealed epoch
// fully intact or an unsealed directory of debris (invisible to Epochs and
// reclaimed by SweepUnsealed) — never a sealed manifest with missing bytes.
func (s *FileStore) DeleteEpoch(epoch int) (int64, error) {
	reclaimed, _, err := removeSized(s.ManifestPath(epoch))
	if err != nil {
		return reclaimed, err
	}
	bytes, _, err := s.removeUnsealedDir(epoch)
	return reclaimed + bytes, err
}

// SweepUnsealed implements Sweeper.
func (s *FileStore) SweepUnsealed(before int) (int64, int, error) {
	all, err := s.epochDirs()
	if err != nil {
		return 0, 0, err
	}
	var bytes int64
	var objects int
	for _, e := range all {
		if e >= before {
			continue
		}
		if _, err := os.Stat(s.ManifestPath(e)); err == nil {
			continue // sealed
		}
		b, n, err := s.removeUnsealedDir(e)
		bytes += b
		objects += n
		if err != nil {
			return bytes, objects, err
		}
	}
	return bytes, objects, nil
}

// removeUnsealedDir deletes every file in an (already unsealed) epoch
// directory, then the directory itself, tallying what was reclaimed.
func (s *FileStore) removeUnsealedDir(epoch int) (int64, int, error) {
	dir := s.EpochDir(epoch)
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("ckpt: listing epoch %d dir: %w", epoch, err)
	}
	var bytes int64
	var objects int
	for _, ent := range ents {
		n, existed, err := removeSized(filepath.Join(dir, ent.Name()))
		bytes += n
		if existed {
			objects++
		}
		if err != nil {
			return bytes, objects, err
		}
	}
	if err := os.Remove(dir); err != nil && !os.IsNotExist(err) {
		return bytes, objects, fmt.Errorf("ckpt: removing epoch %d dir: %w", epoch, err)
	}
	return bytes, objects, nil
}

// removeSized deletes one file, returning its size and whether it existed.
// An already-absent file reclaims zero bytes and is not an error (deletion
// is idempotent).
func removeSized(path string) (int64, bool, error) {
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("ckpt: deleting %s: %w", path, err)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return 0, true, fmt.Errorf("ckpt: deleting %s: %w", path, err)
	}
	return fi.Size(), true, nil
}

// -------------------------------------------------------------- ModelStore

// ModelStore decorates a Store with the netmodel's storage cost model:
// every shard and manifest written through it is metered, and each sealed
// epoch's traffic is converted into a netmodel.WriteCost against the
// selected storage tier. The coordinator commits through a ModelStore and
// charges the resulting Stall to the rank clocks (the whole write for
// synchronous captures, only the tier's open latency for asynchronous ones,
// with the transfer accounted as Overlap).
//
// An epoch committed to the burst-buffer tier additionally accrues a drain
// cost: the background parallel-FS write that migrates the sealed epoch to
// durable storage (burst buffers are staging space, not an archive). The
// drain never stalls the job; EpochDrain exposes it and the coordinator
// reports it as CheckpointStats.TierDrainVT.
type ModelStore struct {
	Inner Store
	Model *netmodel.Model

	// Nodes is the writer-node count the bandwidth model fans out over.
	Nodes int
	// Overlapped selects the forked-checkpoint cost split (see
	// netmodel.TierWriteCost).
	Overlapped bool
	// Tier is the storage tier commits are charged against. Sealed
	// manifests are stamped with it (Manifest.Tier) so restart read
	// modeling knows where the chain's bytes live.
	Tier netmodel.StorageTier
	// PadShardBytes, when positive, charges every fresh shard at this size
	// instead of its actual blob length (reproducing the paper's padded
	// image sizes). Reused shards are never charged — that is the
	// incremental win. CDC objects are charged pro-rata (the fresh-chunk
	// fraction of the padded size): their bytes are priced, never padded
	// back up to whole shards.
	PadShardBytes int64
	// FlateLevel, when non-zero, selects the flate compression level fresh
	// shards committed through this store are encoded at — the tier's codec
	// hint (netmodel.TierSpec.FlateLevel): a fast staging tier trades ratio
	// for encode speed, an archival tier the reverse. Zero keeps the
	// package default.
	FlateLevel int
	// Codec, when non-empty, names the codec fresh shards are encoded
	// through ("flate" or "none", see CodecByName); empty keeps flate at
	// FlateLevel. The choice is persisted per shard (ShardInfo.CodecID) so
	// decode follows the stored bytes, not the current configuration.
	Codec string

	// Drains, when set, submits every burst-tier epoch's background PFS
	// drain to a shared multi-tenant scheduler instead of assuming the
	// drain owns the PFS bandwidth. The standalone pricing recorded by
	// EpochDrain is unchanged (it is exactly the request's uncontended
	// service time); what the scheduler adds is backpressure — a bounded
	// staging capacity whose backlog delays admission (EpochQueue) or, past
	// FallbackWaitVT, forces the epoch straight to the PFS (EpochFallback).
	Drains *netmodel.DrainScheduler
	// JobID keys this store's traffic in the shared scheduler's accounting.
	JobID int
	// Priority ranks this store's drains under the scheduler's priority
	// policy (higher serves first; ignored by the other policies).
	Priority int
	// FallbackWaitVT is the longest admission delay a sealing epoch
	// tolerates before abandoning the burst tier: a backlog that cannot
	// make room within it forces the epoch direct-to-PFS. Zero tolerates no
	// wait at all (any backlog past capacity falls back).
	FallbackWaitVT float64

	mu sync.Mutex
	// pending is keyed by epoch: with double-buffered background commits
	// two epochs meter bytes concurrently, and aborting one must not
	// discard (or a seal consume) the bytes accumulated for the other.
	pending map[int]int64
	costs   map[int]netmodel.WriteCost
	drains  map[int]float64 // burst-tier epochs: background PFS drain time
	// drainBytes records the staged bytes behind each entry of drains (the
	// scheduler request size; kept even without a scheduler so callers can
	// audit the byte accounting the drain prices).
	drainBytes map[int]int64
	queues     map[int]float64 // backpressure: admission wait charged at seal
	fallbacks  map[int]bool    // epochs the backlog forced direct-to-PFS

	// Cumulative drain totals. Unlike drainBytes these survive DeleteEpoch,
	// so a job's lifetime staging volume stays auditable after GC and
	// compaction have retired the epochs that produced it.
	totalDrainBytes int64
	totalDrains     int
}

// NewModelStore wraps a store with the storage cost model (parallel-FS tier
// by default; set Tier before the first commit to stage on the burst tier).
func NewModelStore(inner Store, model *netmodel.Model, nodes int) *ModelStore {
	return &ModelStore{
		Inner: inner, Model: model, Nodes: nodes,
		pending:    make(map[int]int64),
		costs:      make(map[int]netmodel.WriteCost),
		drains:     make(map[int]float64),
		drainBytes: make(map[int]int64),
		queues:     make(map[int]float64),
		fallbacks:  make(map[int]bool),
	}
}

// meteredShardWriter counts the bytes of one shard stream and charges them
// (or the padded size) to the ModelStore's pending epoch at Close — the
// stream equivalent of metering a blob put, with the charge landing only
// once the object is durably installed.
type meteredShardWriter struct {
	s      *ModelStore
	inner  io.WriteCloser
	epoch  int
	n      int64
	pad    int64 // per-stream charge override (CDC pro-rata pricing)
	closed bool
}

func (w *meteredShardWriter) Write(p []byte) (int, error) {
	n, err := w.inner.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *meteredShardWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.inner.Close(); err != nil {
		return err
	}
	charged := w.n
	if w.pad > 0 {
		charged = w.pad
	} else if w.s.PadShardBytes > 0 {
		charged = w.s.PadShardBytes
	}
	w.s.mu.Lock()
	w.s.pending[w.epoch] += charged
	w.s.mu.Unlock()
	return nil
}

// PutShardStream implements Store, metering the stream as it closes.
func (s *ModelStore) PutShardStream(epoch, rank int) (io.WriteCloser, error) {
	w, err := s.Inner.PutShardStream(epoch, rank)
	if err != nil {
		return nil, err
	}
	return &meteredShardWriter{s: s, inner: w, epoch: epoch}, nil
}

// putShardStreamPadded opens a metered stream whose Close charges `pad`
// bytes regardless of PadShardBytes — how a CDC object is priced at the
// fresh-chunk fraction of the padded image size instead of a whole padded
// shard. pad <= 0 falls back to the default metering.
func (s *ModelStore) putShardStreamPadded(epoch, rank int, pad int64) (io.WriteCloser, error) {
	w, err := s.Inner.PutShardStream(epoch, rank)
	if err != nil {
		return nil, err
	}
	return &meteredShardWriter{s: s, inner: w, epoch: epoch, pad: pad}, nil
}

// OpenShard implements Store.
func (s *ModelStore) OpenShard(epoch, rank int) (io.ReadCloser, error) {
	return s.Inner.OpenShard(epoch, rank)
}

// PutShard implements Store, metering the write.
func (s *ModelStore) PutShard(epoch, rank int, blob []byte) error {
	return putShardBlob(s, epoch, rank, blob)
}

// GetShard implements Store.
func (s *ModelStore) GetShard(epoch, rank int) ([]byte, error) { return s.Inner.GetShard(epoch, rank) }

// PutManifest implements Store. Sealing the epoch converts the bytes
// accumulated since the previous seal into that epoch's write cost on the
// configured tier, stamping the manifest with the tier before it is encoded
// so the chain records where its bytes landed. Burst-tier epochs also
// accrue the background PFS drain cost for the same bytes.
//
// With a shared drain scheduler attached, sealing is also the backpressure
// decision point: the scheduler is asked how long past the capture time the
// drain backlog needs to make staging room for this epoch's bytes. A wait
// within FallbackWaitVT is charged as the epoch's queue stall (EpochQueue)
// and shifts the drain's arrival; a longer one abandons the burst tier —
// the epoch is stamped, charged, and restart-priced as a direct PFS write
// (EpochFallback), and no drain is enqueued. The tier choice is pure
// accounting (the shards physically land in the inner store either way), so
// deciding it at seal time re-prices the epoch without rewriting any data.
func (s *ModelStore) PutManifest(epoch int, man *Manifest) error {
	// The EFFECTIVE tier is stamped and charged: requesting the burst tier
	// on a one-tier system is a plain PFS write, and fabricating a drain
	// for it would double-count the storage traffic.
	tier := s.Model.EffectiveTier(s.Tier)
	s.mu.Lock()
	pending := s.pending[epoch]
	s.mu.Unlock()
	queue, fallback := 0.0, false
	if tier != netmodel.TierPFS && s.Drains != nil {
		wait := s.Drains.AdmitDelay(man.CaptureVT, pending)
		if math.IsInf(wait, 1) || wait > s.FallbackWaitVT {
			tier, fallback = netmodel.TierPFS, true
		} else {
			queue = wait
		}
	}
	man.Tier = int(tier)
	if err := s.Inner.PutManifest(epoch, man); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-read under the lock: the sealed-last contract means every shard
	// writer has closed by now, but the defensive re-read keeps the charge
	// consistent even if a stray late close raced the snapshot above.
	pending = s.pending[epoch]
	s.costs[epoch] = s.Model.TierWriteCost(tier, pending, s.Nodes, s.Overlapped)
	if queue > 0 {
		s.queues[epoch] = queue
	}
	if fallback {
		s.fallbacks[epoch] = true
	}
	if tier != netmodel.TierPFS {
		s.drains[epoch] = s.Model.TierWriteTime(netmodel.TierPFS, pending, s.Nodes)
		s.drainBytes[epoch] = pending
		s.totalDrainBytes += pending
		s.totalDrains++
		if s.Drains != nil {
			s.Drains.Enqueue(netmodel.DrainRequest{
				Job: s.JobID, Epoch: epoch, Bytes: pending, Nodes: s.Nodes,
				VT: man.CaptureVT + queue, Priority: s.Priority,
			})
		}
	}
	delete(s.pending, epoch)
	return nil
}

// GetManifest implements Store.
func (s *ModelStore) GetManifest(epoch int) (*Manifest, error) { return s.Inner.GetManifest(epoch) }

// Epochs implements Store.
func (s *ModelStore) Epochs() ([]int, error) { return s.Inner.Epochs() }

// DeleteShard implements Store. Deletion is metadata traffic; DeleteCost
// prices it per object, not per byte.
func (s *ModelStore) DeleteShard(epoch, rank int) (int64, error) {
	return s.Inner.DeleteShard(epoch, rank)
}

// DeleteEpoch implements Store, dropping the epoch's recorded cost and
// drain along with its bytes so a later epoch reusing the number (after a
// chain reset) cannot inherit a stale price.
func (s *ModelStore) DeleteEpoch(epoch int) (int64, error) {
	n, err := s.Inner.DeleteEpoch(epoch)
	s.mu.Lock()
	delete(s.costs, epoch)
	delete(s.drains, epoch)
	delete(s.drainBytes, epoch)
	delete(s.queues, epoch)
	delete(s.fallbacks, epoch)
	s.mu.Unlock()
	return n, err
}

// SweepUnsealed implements Sweeper when the inner store does; on a bare
// inner store it reclaims nothing.
func (s *ModelStore) SweepUnsealed(before int) (int64, int, error) {
	if sw, ok := s.Inner.(Sweeper); ok {
		return sw.SweepUnsealed(before)
	}
	return 0, 0, nil
}

// DeleteCost models reclaiming `objects` store objects on the configured
// tier: one open plus a per-object metadata operation (priced as a Seek).
// Deleted bytes never travel, so bytes do not appear in the cost.
func (s *ModelStore) DeleteCost(objects int) float64 {
	return s.Model.TierDeleteTime(s.Model.EffectiveTier(s.Tier), objects)
}

// EpochCost returns the modeled write cost of a sealed epoch (zero-valued
// if the epoch was not committed through this ModelStore instance).
func (s *ModelStore) EpochCost(epoch int) netmodel.WriteCost {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.costs[epoch]
}

// EpochDrain returns the modeled background drain time of a burst-tier
// epoch — the parallel-FS write that migrates the sealed epoch to durable
// storage. Zero for epochs committed directly to the PFS (nothing to
// migrate) or not committed through this instance.
func (s *ModelStore) EpochDrain(epoch int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drains[epoch]
}

// EpochDrainBytes returns the staged bytes behind a burst-tier epoch's drain
// (the scheduler request size). Zero for direct-PFS epochs — including
// backlog-forced fallbacks, which never stage anything.
func (s *ModelStore) EpochDrainBytes(epoch int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainBytes[epoch]
}

// TotalDrainBytes returns the cumulative bytes this store has ever staged for
// background drain, across all epochs including ones since garbage-collected
// or compacted away. When the store feeds a DrainScheduler this equals the
// scheduler's per-job byte meter for this store's JobID.
func (s *ModelStore) TotalDrainBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalDrainBytes
}

// TotalDrains returns the cumulative count of drain requests this store has
// recorded (one per burst-tier seal, including compacted epochs).
func (s *ModelStore) TotalDrains() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalDrains
}

// EpochQueue returns the backpressure stall charged when the epoch sealed:
// how long the drain backlog made the epoch wait for staging room. Zero
// without a scheduler, without a capacity bound, or when room existed at the
// capture time.
func (s *ModelStore) EpochQueue(epoch int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queues[epoch]
}

// EpochFallback reports whether the drain backlog forced this epoch to
// abandon the burst tier and commit direct-to-PFS.
func (s *ModelStore) EpochFallback(epoch int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallbacks[epoch]
}

// AbortEpoch discards bytes metered toward one epoch whose commit failed
// before sealing, so they are not charged to a later sealed epoch's cost.
// Only the named epoch's meter is cleared: under double-buffered background
// commits a concurrent in-flight epoch keeps the bytes already metered for
// it. The aborted epoch's partial shard objects (debris the sealed-last
// contract hides but nothing else would remove) are deleted from the inner
// store best-effort — the epoch was never sealed, so there is no manifest
// ordering to respect.
func (s *ModelStore) AbortEpoch(epoch int) {
	s.mu.Lock()
	delete(s.pending, epoch)
	s.mu.Unlock()
	s.Inner.DeleteEpoch(epoch)
}

// ------------------------------------------------------------ commit stage

// CommitStats summarizes one epoch commit: the incremental differ's verdict
// plus the bytes that actually traveled to storage.
type CommitStats struct {
	Epoch        int
	FreshShards  int
	ReusedShards int
	FreshBytes   int64 // compressed bytes written this epoch
	ReusedBytes  int64 // compressed bytes referenced from earlier epochs
	// CDCShards/CDCBytes count the subset of the fresh set written as
	// content-defined-chunk objects (fresh chunks only); their bytes are
	// included in FreshBytes.
	CDCShards int
	CDCBytes  int64
}

// CommitCapture runs stages 2–3 of the checkpoint pipeline for one captured
// job image: hash every rank's shard identity, diff against the parent
// manifest, stream the fresh shards into the store, and seal the epoch's
// manifest. parent is the previously committed manifest (nil for the
// chain's first epoch, or when incremental reuse is disabled).
//
// A shard is reused when its clockless raw gob hashes identically (RawSum,
// RawSize) to the parent epoch's entry for the same rank; the manifest then
// records a reference to the epoch that physically holds the bytes
// (reference chains are collapsed: RefEpoch is copied from the parent
// entry, never left pointing at an intermediate reference).
func CommitCapture(store Store, epoch int, parent *Manifest, img *JobImage) (*Manifest, *CommitStats, error) {
	sums, err := HashCapture(img)
	if err != nil {
		return nil, nil, err
	}
	return CommitStreamed(store, epoch, parent, img, sums, nil)
}

// ShardSums holds stage 2a's output: every rank's clockless shard identity
// (raw gob size and writeHashID hash), computed by streaming each gob
// through a counter — no raw bytes are retained. It depends only on the image — not
// on the parent manifest — so the coordinator computes it BEFORE taking the
// epoch-ordering ticket, letting concurrent background commits hash in
// parallel instead of queueing their CPU work behind the previous epoch.
type ShardSums struct {
	Sums  []uint64
	Sizes []int64
	// Chunks carries the per-rank content-defined chunk tables when the
	// capture was hashed for CDC commits (HashCaptureCDC); nil means no
	// chunk-level diffing. CommitStreamed looks each chunk up in the parent
	// chain's content-addressed index.
	Chunks [][]RawChunk
}

// HashCapture hashes every rank's clockless shard identity across
// GOMAXPROCS workers, using O(workers) memory regardless of shard sizes.
func HashCapture(img *JobImage) (*ShardSums, error) {
	n := len(img.Images)
	sums := &ShardSums{Sums: make([]uint64, n), Sizes: make([]int64, n)}
	errs := make([]error, n)
	fanOut(n, encodeWorkers(n), func(i int) {
		sums.Sums[i], sums.Sizes[i], errs[i] = hashShardClockless(&img.Images[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// HashCaptureCDC records each rank's content-defined chunk table over the
// same single streaming pass as the stream identity (the gear hash, chunk
// CRCs and chunk sums ride the identity stream — no second walk), arming
// CommitStreamed's content-addressed chunk diff.
func HashCaptureCDC(img *JobImage) (*ShardSums, error) {
	n := len(img.Images)
	sums := &ShardSums{
		Sums:   make([]uint64, n),
		Sizes:  make([]int64, n),
		Chunks: make([][]RawChunk, n),
	}
	errs := make([]error, n)
	fanOut(n, encodeWorkers(n), func(i int) {
		sums.Sums[i], sums.Sizes[i], sums.Chunks[i], errs[i] = hashShardClocklessCDC(&img.Images[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// CommitStreamed runs the ordered tail of the commit: diff the hashed shard
// identities against the parent manifest, stream the fresh set into the
// store (each shard gob+flate+checksum straight into its PutShardStream
// writer — no whole-shard slice anywhere), and seal the manifest from the
// writer-reported sizes and checksums. budget bounds the fan-out's
// in-flight encode memory; nil selects a default-capacity budget.
func CommitStreamed(store Store, epoch int, parent *Manifest, img *JobImage, sums *ShardSums, budget *StreamBudget) (*Manifest, *CommitStats, error) {
	n := len(img.Images)
	if budget == nil {
		budget = NewStreamBudget(0)
	}
	cdcMode := sums.Chunks != nil
	ms, _ := store.(*ModelStore)
	level := 0
	codecName := ""
	if ms != nil {
		level = ms.FlateLevel
		codecName = ms.Codec
	}
	codec, err := CodecByName(codecName, level)
	if err != nil {
		return nil, nil, err
	}

	parentByRank := make(map[int]*ShardInfo)
	if parent != nil {
		for i := range parent.Shards {
			parentByRank[parent.Shards[i].Rank] = &parent.Shards[i]
		}
	}

	// The content-addressed chunk index: every chunk the parent chain
	// already stores, keyed by content identity, valued by its physical
	// source address — built from the parent manifest's tables alone, no
	// object reads. Cross-rank entries are included deliberately: duplicate
	// state between ranks dedups exactly like duplicate state across time.
	// Only entries under writeHashID qualify — a chunk sum is meaningless
	// against another hash's — so a chain inherited from an older hash
	// re-writes once and dedups again from the next epoch on.
	var chunkIndex map[chunkKey]ChunkRef
	if cdcMode && parent != nil {
		chunkIndex = make(map[chunkKey]ChunkRef)
		for i := range parent.Shards {
			if parent.Shards[i].HashID != writeHashID {
				continue
			}
			for _, c := range parent.Shards[i].Chunks {
				if _, ok := chunkIndex[keyOfRef(&c)]; !ok {
					chunkIndex[keyOfRef(&c)] = c
				}
			}
		}
	}

	man := &Manifest{
		Algorithm:          img.Algorithm,
		Ranks:              img.Ranks,
		PPN:                img.PPN,
		CaptureVT:          img.CaptureVT,
		PaddedBytesPerRank: img.PaddedBytesPerRank,
		Shards:             make([]ShardInfo, n),
		Version:            ManifestV3,
		Epoch:              epoch,
		Parent:             -1,
	}
	if cdcMode {
		man.Version = ManifestV5
	}
	if parent != nil {
		man.Parent = parent.Epoch
	}

	// Diff against the parent BEFORE streaming: on the low-churn jobs
	// incremental checkpointing targets, most shards are references and
	// re-encoding them would be pure waste. Only the fresh set streams.
	st := &CommitStats{Epoch: epoch}
	fresh := make([]int, 0, n)
	for i := range img.Images {
		ri := &img.Images[i]
		si := ShardInfo{
			Rank:      ri.Rank,
			RawSize:   sums.Sizes[i],
			RawSum:    sums.Sums[i],
			ClockVT:   ri.ClockVT,
			RefEpoch:  epoch,
			RawFormat: RawFormatChunked,
			CodecID:   codec.ID(), // fresh shards; the reuse case overrides
			HashID:    writeHashID,
		}
		p := parentByRank[ri.Rank]
		switch {
		// Reuse keys on the raw identity, which includes the layout and the
		// identity hash: a legacy-format parent shard never hashes equal to
		// a chunked one, and a parent sum under another hash is not
		// comparable at all, so a chain resumed from an old store re-writes
		// (not mis-references) its first capture. The reused entry copies
		// the parent's format so decode follows the bytes that actually
		// exist.
		case p != nil && p.HashID == writeHashID && p.RawSum == sums.Sums[i] && p.RawSize == sums.Sizes[i]:
			// Unchanged since the parent capture: reference the bytes where
			// they already live instead of rewriting them. (A rank whose
			// every chunk is unchanged is exactly this case: identical
			// logical bytes are a reference, never an empty chunk object.)
			si.RefEpoch = p.RefEpoch
			si.Size = p.Size
			si.Checksum = p.Checksum
			si.RawFormat = p.RawFormat
			si.CodecID = p.CodecID
			if p.RawFormat == RawFormatCDC {
				// The stored object is the parent's CDC object: decode needs
				// its stored-stream identity.
				si.DeltaRawSize = p.DeltaRawSize
				si.DeltaRawSum = p.DeltaRawSum
			}
			// Keep the chunk table alive across reuse: the refs address
			// sealed physical objects verbatim, so later epochs keep
			// deduplicating against them (and CDC entries stay decodable).
			si.Chunks = p.Chunks
			st.ReusedShards++
			st.ReusedBytes += p.Size
		case cdcMode:
			// Changed. Look every chunk up in the parent chain's index:
			// chunks whose content already lives in a sealed object are
			// referenced verbatim (one hop, never a chain), the rest are
			// fresh and self-sourced. Past half the bytes fresh, a
			// self-contained full shard beats the fan-in a CDC object costs
			// at restart.
			table := sums.Chunks[i]
			refs := make([]ChunkRef, len(table))
			var reused int64
			for k := range table {
				if r, ok := chunkIndex[keyOfRaw(&table[k])]; ok {
					refs[k] = r
					reused += r.Len
				} else {
					// SrcOff is stamped after the stream writes (the fresh
					// payload offsets depend on the encoded header length).
					refs[k] = ChunkRef{Len: table[k].Len, CRC: table[k].CRC,
						Sum: table[k].Sum, SrcEpoch: epoch, SrcRank: ri.Rank}
				}
			}
			if reused*2 >= sums.Sizes[i] && len(table) > 0 {
				si.RawFormat = RawFormatCDC
				si.Chunks = refs
			} else {
				si.Chunks = selfChunkRefs(table, epoch, ri.Rank)
			}
			fresh = append(fresh, i)
		default:
			fresh = append(fresh, i)
		}
		man.Shards[i] = si
	}

	// Stream the fresh shards concurrently, each worker's in-flight state
	// charged against the budget: the fan-out degrades gracefully to fewer
	// concurrent streams as the budget tightens, never to more memory.
	ferrs := make([]error, len(fresh))
	fanOut(len(fresh), encodeWorkers(len(fresh)), func(j int) {
		ferrs[j] = func() error {
			i := fresh[j]
			ri := &img.Images[i]
			si := &man.Shards[i]
			budget.Acquire(shardStreamFootprint)
			defer budget.Release(shardStreamFootprint)
			dst, err := openFreshStream(store, ms, epoch, si)
			if err != nil {
				return err
			}
			var sum ShardSummary
			var encErr, closeErr error
			switch si.RawFormat {
			case RawFormatCDC:
				freshIdx := cdcFreshIndices(si)
				lens := make([]int64, len(si.Chunks))
				for k := range si.Chunks {
					lens[k] = si.Chunks[k].Len
				}
				cw, err := NewShardCDCWriter(ri.Rank, dst, codec, shardCDCHeader{
					Rank: ri.Rank, RawSize: si.RawSize, Chunks: lens, Fresh: freshIdx,
				})
				if err != nil {
					//lint:allow closecheck cdc-writer setup failed; dst is abandoned and the setup error surfaces
					dst.Close()
					return err
				}
				encErr = writeShardRaw(cw, ri, true)
				var csum ShardCDCSummary
				csum, closeErr = cw.Close()
				sum = ShardSummary{Size: csum.Size, Checksum: csum.Checksum,
					RawSize: csum.RawSize, RawSum: csum.RawSum}
				si.DeltaRawSize = csum.DeltaRawSize
				si.DeltaRawSum = csum.DeltaRawSum
				// Stamp the fresh chunks' addresses into this object's stored
				// stream: header first, then the fresh payloads in index
				// order.
				off := csum.HeaderLen
				for _, k := range freshIdx {
					si.Chunks[k].SrcOff = off
					off += si.Chunks[k].Len
				}
			default:
				sw, err := NewShardWriterCodec(ri.Rank, dst, codec)
				if err != nil {
					//lint:allow closecheck shard-writer setup failed; dst is abandoned and the setup error surfaces
					dst.Close()
					return err
				}
				encErr = sw.Encode(ri, true)
				sum, closeErr = sw.Close()
			}
			if encErr != nil {
				return encErr
			}
			if closeErr != nil {
				return closeErr
			}
			// The raw identity must match the pre-ticket hash: it keys the
			// next epoch's diff, and a drift here would silently reuse a
			// changed shard later. (For CDC objects the writer's raw counter
			// sees the same logical stream, so the check is format-independent.)
			if sum.RawSum != sums.Sums[i] || sum.RawSize != sums.Sizes[i] {
				return fmt.Errorf("ckpt: rank %d shard identity drifted between hash and stream (state mutated during commit?)", ri.Rank)
			}
			si.Size = sum.Size
			si.Checksum = sum.Checksum
			return nil
		}()
	})
	for _, err := range ferrs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, i := range fresh {
		st.FreshShards++
		st.FreshBytes += man.Shards[i].Size
		if man.Shards[i].RawFormat == RawFormatCDC {
			st.CDCShards++
			st.CDCBytes += man.Shards[i].Size
		}
	}
	if err := store.PutManifest(epoch, man); err != nil {
		return nil, nil, err
	}
	return man, st, nil
}

// openFreshStream opens the store stream one fresh shard encodes into,
// routing CDC shards through the ModelStore's pro-rata padded pricing when
// a padded image size is configured: a chunk object charges the fraction of
// the padded size its fresh chunk bytes cover.
func openFreshStream(store Store, ms *ModelStore, epoch int, si *ShardInfo) (io.WriteCloser, error) {
	if ms != nil && ms.PadShardBytes > 0 && si.RawFormat == RawFormatCDC && si.RawSize > 0 {
		pad := ms.PadShardBytes * cdcFreshLen(si) / si.RawSize
		if pad < 1 {
			pad = 1
		}
		return ms.putShardStreamPadded(epoch, si.Rank, pad)
	}
	return store.PutShardStream(epoch, si.Rank)
}

// ------------------------------------------------------------- load/verify

// LatestEpoch returns the store's newest sealed epoch, or -1 with an error
// when the store is unreadable or holds no sealed epochs. The -1 is
// deliberate: epoch 0 is a valid epoch, so a zero-valued error return would
// alias the chain's first epoch for any caller that drops the error.
func LatestEpoch(store Store) (int, error) {
	epochs, err := store.Epochs()
	if err != nil {
		return -1, err
	}
	if len(epochs) == 0 {
		return -1, fmt.Errorf("ckpt: store holds no sealed epochs")
	}
	return epochs[len(epochs)-1], nil
}

// sealedSet returns the store's sealed epochs as a set.
func sealedSet(store Store) (map[int]bool, error) {
	epochs, err := store.Epochs()
	if err != nil {
		return nil, err
	}
	set := make(map[int]bool, len(epochs))
	for _, e := range epochs {
		set[e] = true
	}
	return set, nil
}

// unsealedRefErr is the one diagnostic for a cross-epoch reference whose
// target epoch is not sealed (shared by every chain-resolution entry point
// so the wording cannot drift between them).
func unsealedRefErr(man *Manifest, si *ShardInfo) error {
	return fmt.Errorf("ckpt: epoch %d rank %d references epoch %d, which is not sealed in the store (aborted commit or lost parent manifest)",
		man.Epoch, si.Rank, si.RefEpoch)
}

// unsealedChunkErr is the same diagnostic for a chunk table entry whose
// source epoch is gone: without the object physically holding the chunk's
// bytes the shard cannot reassemble.
func unsealedChunkErr(man *Manifest, si *ShardInfo, srcEpoch int) error {
	return fmt.Errorf("ckpt: epoch %d rank %d chunk-references epoch %d, which is not sealed in the store (aborted commit or reclaimed chunk source)",
		man.Epoch, si.Rank, srcEpoch)
}

// unsealedChunkSrc returns the first chunk-source epoch of si that is not
// sealed, or -1 when every source resolves. Sources equal to the manifest's
// own epoch are trivially sealed-by-construction (the manifest in hand IS
// the seal).
func unsealedChunkSrc(si *ShardInfo, manEpoch int, sealed map[int]bool) int {
	for i := range si.Chunks {
		if e := si.Chunks[i].SrcEpoch; e != manEpoch && !sealed[e] {
			return e
		}
	}
	return -1
}

// checkRefsSealed validates that every cross-epoch reference in a manifest
// resolves to a SEALED epoch. A reference into an unsealed epoch directory
// (an aborted commit, or a chain whose parent manifest was lost) must fail
// with a diagnostic naming the reference — its shard files may physically
// exist, and silently restoring from an aborted commit is exactly the
// corruption the manifest-sealed-last contract exists to prevent.
func checkRefsSealed(store Store, man *Manifest) error {
	hasRefs := false
	for i := range man.Shards {
		if man.Shards[i].RefEpoch != man.Epoch || man.Shards[i].RawFormat == RawFormatCDC {
			hasRefs = true
			break
		}
	}
	if !hasRefs {
		return nil
	}
	sealed, err := sealedSet(store)
	if err != nil {
		return err
	}
	for i := range man.Shards {
		si := &man.Shards[i]
		if si.RefEpoch != man.Epoch && !sealed[si.RefEpoch] {
			return unsealedRefErr(man, si)
		}
		if e := unsealedChunkSrc(si, man.Epoch, sealed); e >= 0 {
			return unsealedChunkErr(man, si, e)
		}
	}
	return nil
}

// LoadJobImage materializes one epoch's job image from a store, resolving
// shard references through the chain (each shard streamed and verified on
// the way in — the compressed blob is never materialized) and verifying
// every shard's checksum. Failures name the epoch and rank (and the
// referenced epoch physically holding the bytes) so a damaged chain is
// attributable.
func LoadJobImage(store Store, epoch int) (*JobImage, error) {
	man, err := store.GetManifest(epoch)
	if err != nil {
		return nil, err
	}
	if err := checkRefsSealed(store, man); err != nil {
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
		si := &man.Shards[i]
		ri, err := loadShard(store, man, si)
		if err != nil {
			errs[i] = err
			return
		}
		ji.Images[i] = *ri
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ji, nil
}

// loadShard streams, verifies, and decodes one shard through its reference:
// the stored bytes are checksummed as they are read and decompression feeds
// the gob decoder directly, so nothing shard-sized is buffered on the way.
func loadShard(store Store, man *Manifest, si *ShardInfo) (*RankImage, error) {
	at := fmt.Sprintf("epoch %d rank %d", man.Epoch, si.Rank)
	if si.RefEpoch != man.Epoch {
		at = fmt.Sprintf("epoch %d rank %d (shard stored in epoch %d)", man.Epoch, si.Rank, si.RefEpoch)
	}
	var ri *RankImage
	var err error
	switch si.RawFormat {
	case RawFormatCDC:
		ri, err = loadShardCDC(store, si)
	default:
		codec, cerr := codecByID(si.CodecID)
		if cerr != nil {
			return nil, fmt.Errorf("ckpt: %s: %w", at, cerr)
		}
		var rc io.ReadCloser
		rc, err = store.OpenShard(si.RefEpoch, si.Rank)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: %w", at, err)
		}
		defer rc.Close()
		ri, err = decodeShardStream(rc, si.RawSize, si.Checksum, si.HashID, si.RawFormat, codec)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", at, err)
	}
	if ri.Rank != si.Rank {
		return nil, fmt.Errorf("ckpt: %s: shard content is for rank %d", at, ri.Rank)
	}
	if man.Version >= ManifestV3 {
		// v3 shards are encoded clockless; the capture-time clock rides in
		// the manifest.
		ri.ClockVT = si.ClockVT
	}
	return ri, nil
}

// ExtractRankFromStore decodes a single rank's image from one store epoch:
// only that rank's manifest entry is resolved (through the reference chain)
// and only its shard is fetched and decompressed — the cheap single-rank
// fetch the per-rank store layout exists for.
func ExtractRankFromStore(store Store, epoch, rank int) (*RankImage, error) {
	man, err := store.GetManifest(epoch)
	if err != nil {
		return nil, err
	}
	for i := range man.Shards {
		si := &man.Shards[i]
		if si.Rank != rank {
			continue
		}
		if si.RefEpoch != man.Epoch || si.RawFormat == RawFormatCDC {
			sealed, err := sealedSet(store)
			if err != nil {
				return nil, err
			}
			if si.RefEpoch != man.Epoch && !sealed[si.RefEpoch] {
				return nil, unsealedRefErr(man, si)
			}
			if e := unsealedChunkSrc(si, man.Epoch, sealed); e >= 0 {
				return nil, unsealedChunkErr(man, si, e)
			}
		}
		return loadShard(store, man, si)
	}
	return nil, fmt.Errorf("ckpt: epoch %d has no rank %d", epoch, rank)
}

// ReadSetOf computes the restart read fan-in of one epoch: the manifest's
// resolved shard set grouped by the epoch physically holding the bytes, in
// the shape netmodel.RestartReadCost prices. The first entry is always the
// restart epoch itself — one sequential scan, even when every shard is a
// reference and it holds no bytes at all — and older referenced epochs
// follow newest-first, each a random fan-in paying per-shard seeks.
//
// Bytes follow the same basis as the write side: with a padded image size
// every shard charges PaddedBytesPerRank, otherwise its compressed size, so
// a restart is priced against exactly what the chain was charged to write.
func ReadSetOf(man *Manifest) []netmodel.EpochRead {
	byEpoch := make(map[int]*netmodel.EpochRead)
	for i := range man.Shards {
		si := &man.Shards[i]
		r := byEpoch[si.RefEpoch]
		if r == nil {
			r = &netmodel.EpochRead{Epoch: si.RefEpoch}
			byEpoch[si.RefEpoch] = r
		}
		r.Shards++
		switch {
		case man.PaddedBytesPerRank > 0 && si.RawFormat == RawFormatCDC && si.RawSize > 0:
			// A CDC object holds only the fresh chunk bytes; padding it back
			// up to a whole shard would erase exactly the read-cost win the
			// format exists for. Reused chunks' sources are charged below.
			r.Bytes += man.PaddedBytesPerRank * cdcFreshLen(si) / si.RawSize
		case man.PaddedBytesPerRank > 0:
			r.Bytes += man.PaddedBytesPerRank
		default:
			r.Bytes += si.Size
		}
		if si.RawFormat == RawFormatCDC {
			// Restart also reads every distinct source object reused chunks
			// point into, pro-rata by the chunk bytes actually pulled from
			// each (padded basis when configured, raw chunk bytes otherwise —
			// the merge reads sources sequentially, skipping unused spans).
			srcBytes := make(map[int]int64)
			srcObjs := make(map[int]map[int]bool)
			for k := range si.Chunks {
				c := &si.Chunks[k]
				if c.SrcEpoch == si.RefEpoch && c.SrcRank == si.Rank {
					continue // fresh: in the CDC object charged above
				}
				srcBytes[c.SrcEpoch] += c.Len
				if srcObjs[c.SrcEpoch] == nil {
					srcObjs[c.SrcEpoch] = make(map[int]bool)
				}
				srcObjs[c.SrcEpoch][c.SrcRank] = true
			}
			for e, bytes := range srcBytes {
				b := byEpoch[e]
				if b == nil {
					b = &netmodel.EpochRead{Epoch: e}
					byEpoch[e] = b
				}
				b.Shards += len(srcObjs[e])
				if man.PaddedBytesPerRank > 0 && si.RawSize > 0 {
					b.Bytes += man.PaddedBytesPerRank * bytes / si.RawSize
				} else {
					b.Bytes += bytes
				}
			}
		}
	}
	if byEpoch[man.Epoch] == nil {
		byEpoch[man.Epoch] = &netmodel.EpochRead{Epoch: man.Epoch}
	}
	reads := make([]netmodel.EpochRead, 0, len(byEpoch))
	reads = append(reads, *byEpoch[man.Epoch])
	delete(byEpoch, man.Epoch)
	rest := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		rest = append(rest, e)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rest)))
	for _, e := range rest {
		reads = append(reads, *byEpoch[e])
	}
	return reads
}

// ResolveReadSet computes a store epoch's restart read set AFTER validating
// the chain it crosses: the epoch's manifest must decode and every
// cross-epoch reference must land in a sealed epoch. A broken chain — a
// referenced parent that was deleted, or whose manifest was lost mid-commit
// — returns a descriptive error naming the (epoch, rank, referenced epoch)
// instead of a silently mispriced (or zero-valued) read set. It is the
// entry point for callers that only PRICE an epoch without loading it;
// rt.RestartFromStore gets the identical validation from LoadJobImage
// (same checkRefsSealed, run before any shard is touched).
func ResolveReadSet(store Store, epoch int) ([]netmodel.EpochRead, error) {
	man, err := store.GetManifest(epoch)
	if err != nil {
		return nil, err
	}
	if err := checkRefsSealed(store, man); err != nil {
		return nil, err
	}
	return ReadSetOf(man), nil
}

// StoreFault names one damaged or unresolvable shard in a store chain.
type StoreFault struct {
	Epoch    int // epoch whose manifest references the shard
	Rank     int
	RefEpoch int // epoch that physically holds (or should hold) the bytes
	Err      error
}

// VerifyStore walks every sealed epoch of a store, verifying that each
// manifest decodes, every shard reference resolves, and every shard's
// checksum and trial decode pass. Faults are attributed per (epoch, rank);
// a structural failure (unreadable epoch list) is returned as err.
//
// A physical shard referenced by many epochs — the norm on the low-churn
// chains incremental checkpointing targets — is fetched and decoded once:
// later epochs whose manifest entry carries the identical (ref-epoch, rank,
// identity hash, checksum, raw size) tuple reuse the verdict instead of
// re-reading it.
func VerifyStore(store Store) ([]StoreFault, error) {
	epochs, err := store.Epochs()
	if err != nil {
		return nil, err
	}
	type shardID struct {
		epoch, rank, hashID int
		sum                 uint64
		rawSize             int64
	}
	verified := make(map[shardID]bool)
	sealed := make(map[int]bool, len(epochs))
	for _, e := range epochs {
		sealed[e] = true
	}
	var faults []StoreFault
	for _, e := range epochs {
		man, err := store.GetManifest(e)
		if err != nil {
			faults = append(faults, StoreFault{Epoch: e, Rank: -1, RefEpoch: e, Err: err})
			continue
		}
		todo := make([]int, 0, len(man.Shards))
		for i := range man.Shards {
			si := &man.Shards[i]
			if si.RefEpoch != man.Epoch && !sealed[si.RefEpoch] {
				// The referenced epoch is gone or never sealed: its shard
				// file may even exist (an aborted commit), but nothing
				// vouches for it — attribute rather than trial-decode.
				faults = append(faults, StoreFault{
					Epoch: e, Rank: si.Rank, RefEpoch: si.RefEpoch,
					Err: fmt.Errorf("references epoch %d, which is not sealed in the store", si.RefEpoch),
				})
				continue
			}
			if bad := unsealedChunkSrc(si, man.Epoch, sealed); bad >= 0 {
				faults = append(faults, StoreFault{
					Epoch: e, Rank: si.Rank, RefEpoch: bad,
					Err: fmt.Errorf("chunk-references epoch %d, which is not sealed in the store", bad),
				})
				continue
			}
			if !verified[shardID{si.RefEpoch, si.Rank, si.HashID, si.Checksum, si.RawSize}] {
				todo = append(todo, i)
			}
		}
		errs := make([]error, len(todo))
		fanOut(len(todo), encodeWorkers(len(todo)), func(j int) {
			_, errs[j] = loadShard(store, man, &man.Shards[todo[j]])
		})
		for j, err := range errs {
			si := &man.Shards[todo[j]]
			if err != nil {
				faults = append(faults, StoreFault{
					Epoch: e, Rank: si.Rank, RefEpoch: si.RefEpoch, Err: err,
				})
				continue
			}
			verified[shardID{si.RefEpoch, si.Rank, si.HashID, si.Checksum, si.RawSize}] = true
		}
	}
	return faults, nil
}
