package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mana/internal/ckpt"
	"mana/internal/netmodel"
	"mana/internal/rt"
)

// captureOp prefixes the name of every capture operation's span.
const captureOp = "capture epoch"

// settle runs before every measured operation: each starts from a
// collected heap, so one operation's garbage is not collected on the next
// one's time or counted in its memory peak.
func settle() { runtime.GC() }

func benchParams() netmodel.Params { return netmodel.PerlmutterLike() }

// samples collects one run's raw measurements.
type samples struct {
	ckptMs, captureMs, commitMs []float64
	restartMs                   []float64
	imageBytes, freshBytes      int64
	ckptSec                     float64
	mpiCalls                    int64
	mpiSec                      float64
	setupSec                    []float64
	stallVT                     []float64
	logicalPerCapture           int64
}

// layerStats collects the traced run's per-layer measurements.
type layerStats struct {
	m meters

	hashBytes, hashNs           int64
	chunks, chunkBytes          int64
	tableChunks, reusedChunks   int64
	flateIn, flateOut           int64
	flateEncNs, flateDecNs      int64
	noneEncNs                   int64
	commitBytes, commitNs       int64
	peakEncode                  int64
	freshShards, totalShards    int64
	allocBytes                  uint64
	loadBytes, loadNs           int64
	loads                       int
	loadRead, loadResolved      int64
	nativeCalls                 int64
	nativeSec, ccSec            float64
	ccWrapperCalls              int64
	untracedCkpt, tracedCkpt    []float64
	untracedRestart, tracedRest []float64
}

// bench runs one workload: set-up, then measured cycles until the deadline.
type bench struct {
	w       *workload
	dir     string // scratch space for stores, inside the checkout
	factory func(int) rt.App
	golden  string
	steps   []int

	tally      tally
	s          samples
	trace      bool
	tr         *tracer
	ls         layerStats
	parkedLate int // captures parked after their request step
}

// calls is the MPI call count the simulator executed for a report.
func calls(rep *rt.Report) int64 {
	c := &rep.Counters
	return c.CollCalls() + c.P2PCalls() + c.Waits + c.Tests + c.Probes
}

// setup computes the golden digest from an uninterrupted run, creates a
// store and warms up one capture and one restart. It runs several times and
// the median is reported, since a later change must not move work here.
func (b *bench) setup(reps int) error {
	for i := 0; i < reps; i++ {
		settle()
		t0 := time.Now()
		cfg := b.w.config()
		rep, err := rt.Run(cfg, b.factory)
		if err := runErr("golden run", rep, err); !b.tally.check(err) {
			return err
		}
		if i == 0 {
			b.golden = rep.StateDigest
		} else {
			b.tally.check(digestErr(rep.StateDigest, b.golden))
		}
		store, dir, err := b.newStore(fmt.Sprintf("warm-%d", i), false)
		if err != nil {
			return err
		}
		cfg.Checkpoint = capturePlan(b.w.reuse, store, b.steps[len(b.steps)-1])
		crep, err := rt.Run(cfg, b.factory)
		b.tally.check(captureErr(crep, err, 0))
		rrep, err := rt.RestartFromStore(b.w.config(), store, -1, b.factory)
		b.tally.check(b.goldenErr("restart", rrep, err))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		b.s.setupSec = append(b.s.setupSec, time.Since(t0).Seconds())
	}
	return nil
}

// newStore creates an empty store for one chain, and the directory to
// remove once the chain is done ("" for an in-memory store).
func (b *bench) newStore(name string, traced bool) (ckpt.Store, string, error) {
	var fs ckpt.Store = ckpt.NewMemStore()
	dir := ""
	if !b.w.memStore {
		dir = filepath.Join(b.dir, name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", err
		}
		var err error
		if fs, err = ckpt.NewFileStore(dir); err != nil {
			return nil, "", err
		}
	}
	if traced {
		return &meteredStore{Store: fs, tr: b.tr, m: &b.ls.m}, dir, nil
	}
	return fs, dir, nil
}

func runErr(what string, rep *rt.Report, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !rep.Completed || rep.StateDigest == "" {
		return fmt.Errorf("%s: job did not complete with a digest", what)
	}
	return nil
}

func captureErr(rep *rt.Report, err error, epoch int) error {
	if err != nil {
		return fmt.Errorf("capture of epoch %d: %w", epoch, err)
	}
	if rep.Checkpoint == nil || rep.Completed {
		return fmt.Errorf("capture of epoch %d: the job did not exit at a capture", epoch)
	}
	if rep.Checkpoint.Epoch != epoch {
		return fmt.Errorf("capture sealed epoch %d, want %d", rep.Checkpoint.Epoch, epoch)
	}
	return nil
}

// goldenErr checks that a run completed with the golden digest.
func (b *bench) goldenErr(what string, rep *rt.Report, err error) error {
	if err := runErr(what, rep, err); err != nil {
		return err
	}
	return digestErr(rep.StateDigest, b.golden)
}

func digestErr(got, want string) error {
	if got != want {
		return fmt.Errorf("digest %.12s != golden %.12s", got, want)
	}
	return nil
}

// run executes measured cycles until the deadline. With tracing, cycles
// alternate between traced and untraced so the tracing overhead is measured
// in the same run.
func (b *bench) run(seconds float64) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	more := func() bool { return time.Now().Before(deadline) }
	for cycle := 0; more(); cycle++ {
		traced := b.trace && cycle%2 == 0
		if err := b.cycle(cycle, traced, more); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) cycle(cycle int, traced bool, more func() bool) error {
	factory := b.factory
	var tr *tracer
	if traced {
		tr = b.tr
		factory = traceApps(b.factory, tr, &b.ls.m)
	}
	for i := 0; i < b.w.plainRuns && more(); i++ {
		b.plainRun(factory, tr)
	}

	store, dir, err := b.newStore(fmt.Sprintf("chain-%d", cycle), traced)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var parent *ckpt.Manifest
	var realized []int
	for epoch, step := range b.steps {
		if !more() {
			break
		}
		cfg := b.w.config()
		cfg.Checkpoint = capturePlan(b.w.reuse, store, step)
		settle()
		var ms0 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		end := tr.beginOp(fmt.Sprintf("%s %d @ step %d", captureOp, epoch, step), "rt")
		rep, err := rt.Run(cfg, factory)
		end()
		if !b.tally.check(captureErr(rep, err, epoch)) {
			return nil // the chain is broken; later epochs would not be comparable
		}
		st := rep.Checkpoint
		ms := 1e3 * (st.CaptureHostSeconds + st.CommitHostSeconds)
		b.s.ckptMs = append(b.s.ckptMs, ms)
		b.s.captureMs = append(b.s.captureMs, 1e3*st.CaptureHostSeconds)
		b.s.commitMs = append(b.s.commitMs, 1e3*st.CommitHostSeconds)
		b.s.imageBytes += st.ImageBytes
		b.s.freshBytes += st.FreshBytes
		b.s.ckptSec += st.CaptureHostSeconds + st.CommitHostSeconds
		b.s.stallVT = append(b.s.stallVT, st.StallVT)
		b.s.logicalPerCapture = st.ImageBytes
		realized = append(realized, int(rep.RankSteps[0]))
		if b.trace {
			if traced {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				b.ls.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				b.ls.tracedCkpt = append(b.ls.tracedCkpt, ms)
				man, err := store.GetManifest(epoch)
				if !b.tally.check(err) {
					return nil
				}
				if err := b.replayCapture(rep, parent, man); !b.tally.check(err) {
					return nil
				}
				if b.w.reuse != reuseNone {
					parent = man // the coordinator diffs against it only when reusing
				}
			} else {
				b.ls.untracedCkpt = append(b.ls.untracedCkpt, ms)
			}
		}
	}
	b.noteParkSteps(realized)
	if len(realized) < len(b.steps) {
		return nil // out of time mid-chain: its restarts would read a shallower chain
	}

	if traced {
		if err := b.replayLoad(store, len(b.steps)-1); !b.tally.check(err) {
			return nil
		}
	}
	for i := 0; i < b.w.restarts && more(); i++ {
		settle()
		end := tr.beginOp("restart from newest epoch", "rt")
		t0 := time.Now()
		rep, err := rt.RestartFromStore(b.w.config(), store, -1, factory)
		sec := time.Since(t0).Seconds()
		end()
		if !b.tally.check(b.goldenErr("restart", rep, err)) {
			continue
		}
		b.s.restartMs = append(b.s.restartMs, 1e3*sec)
		if b.trace {
			if traced {
				b.ls.tracedRest = append(b.ls.tracedRest, 1e3*sec)
			} else {
				b.ls.untracedRestart = append(b.ls.untracedRestart, 1e3*sec)
			}
		}
	}
	if ms, ok := store.(*meteredStore); ok {
		store = ms.Store // verification is a check, not measured store traffic
	}
	faults, err := ckpt.VerifyStore(store)
	if err == nil && len(faults) > 0 {
		err = fmt.Errorf("VerifyStore: %d faults, first: epoch %d rank %d: %v",
			len(faults), faults[0].Epoch, faults[0].Rank, faults[0].Err)
	}
	b.tally.check(err)
	return nil
}

// noteParkSteps counts captures whose rank 0 parked after the step that
// raised the request. The request step is fixed by the seed; under CC the
// ranks may run on to the drain target, so the parked step can be later and
// depends on host scheduling. It is reported, not failed: the restart
// digest is the correctness check.
func (b *bench) noteParkSteps(realized []int) {
	for i, s := range realized {
		if s != b.steps[i] {
			b.parkedLate++
		}
	}
}

// plainRun runs the job uninterrupted under CC (and, traced, natively too)
// for the simulator's call rate.
func (b *bench) plainRun(factory func(int) rt.App, tr *tracer) {
	settle()
	end := tr.beginOp("uninterrupted run (cc)", "mpi")
	t0 := time.Now()
	rep, err := rt.Run(b.w.config(), factory)
	sec := time.Since(t0).Seconds()
	end()
	if !b.tally.check(b.goldenErr("uninterrupted run", rep, err)) {
		return
	}
	b.s.mpiCalls += calls(rep)
	b.s.mpiSec += sec
	if tr == nil {
		return
	}
	cfg := b.w.config()
	cfg.Algorithm = rt.AlgoNative
	settle()
	end = tr.beginOp("uninterrupted run (native)", "mpi")
	t0 = time.Now()
	nrep, err := rt.Run(cfg, b.factory)
	nsec := time.Since(t0).Seconds()
	end()
	if !b.tally.check(runErr("native run", nrep, err)) {
		return
	}
	b.ls.nativeCalls += calls(nrep)
	b.ls.nativeSec += nsec
	b.ls.ccSec += sec
	b.ls.ccWrapperCalls += rep.Counters.WrapperCalls
}

// replayCapture times ckpt's exported stage functions on a captured image:
// the identity hash, the codecs over every rank's payload, and the commit
// into a scratch store against the captured parent manifest.
func (b *bench) replayCapture(rep *rt.Report, parent, sealed *ckpt.Manifest) error {
	img := rep.Image
	tr := b.tr
	end := tr.beginOp("replay hash", "ckpt.hash")
	t0 := time.Now()
	var sums *ckpt.ShardSums
	var err error
	if b.w.reuse == reuseCDC {
		sums, err = ckpt.HashCaptureCDC(img)
	} else {
		sums, err = ckpt.HashCapture(img)
	}
	b.ls.hashNs += int64(time.Since(t0))
	end()
	if err != nil {
		return fmt.Errorf("replaying the hash: %w", err)
	}
	b.ls.hashBytes += sumInt64(sums.Sizes)
	if sums.Chunks != nil {
		b.ls.chunkBytes += sumInt64(sums.Sizes)
		for _, tab := range sums.Chunks {
			b.ls.chunks += int64(len(tab))
		}
	}
	for i := range sealed.Shards {
		si := &sealed.Shards[i]
		b.ls.totalShards++
		if si.RefEpoch == sealed.Epoch {
			b.ls.freshShards++
		}
		for _, c := range si.Chunks {
			b.ls.tableChunks++
			if c.SrcEpoch != sealed.Epoch {
				b.ls.reusedChunks++
			}
		}
	}

	if sealed.Epoch%codecReplayEvery == 0 {
		if err := b.replayCodecs(img); err != nil {
			return err
		}
	}

	end = tr.beginOp("replay CommitStreamed", "ckpt.commit")
	t0 = time.Now()
	_, _, err = ckpt.CommitStreamed(ckpt.NewMemStore(), sealed.Epoch, parent, img, sums, nil)
	b.ls.commitNs += int64(time.Since(t0))
	end()
	if err != nil {
		return fmt.Errorf("replaying the commit: %w", err)
	}
	b.ls.commitBytes += img.TotalBytes()
	if p := rep.Checkpoint.PeakEncodeBytes; p > b.ls.peakEncode {
		b.ls.peakEncode = p
	}
	return nil
}

func sumInt64(xs []int64) int64 {
	t := int64(0)
	for _, x := range xs {
		t += x
	}
	return t
}

// codecReplayEvery samples the codec replay: flate over a whole image costs
// more than the capture itself, and replaying every epoch of a 100-deep
// chain would not leave the traced run time to restart it.
const codecReplayEvery = 10

// replayCodecs runs the flate and none codecs over every rank's application
// payload and decodes the flate output back, checking the round trip.
func (b *bench) replayCodecs(img *ckpt.JobImage) error {
	flate, err := ckpt.CodecByName("flate", benchParams().StorageFlateLevel)
	if err != nil {
		return err
	}
	tr := b.tr
	var enc, out bytes.Buffer
	for i := range img.Images {
		payload := img.Images[i].App
		enc.Reset()
		end := tr.beginOp("flate encode", "ckpt.codec")
		t0 := time.Now()
		err := encodeWith(flate, &enc, payload)
		b.ls.flateEncNs += int64(time.Since(t0))
		end()
		if err != nil {
			return err
		}
		b.ls.flateIn += int64(len(payload))
		b.ls.flateOut += int64(enc.Len())

		out.Reset()
		end = tr.beginOp("flate decode", "ckpt.codec")
		t0 = time.Now()
		r := flate.NewReader(bytes.NewReader(enc.Bytes()))
		_, err = out.ReadFrom(r)
		r.Close()
		b.ls.flateDecNs += int64(time.Since(t0))
		end()
		if err != nil {
			return fmt.Errorf("flate decode: %w", err)
		}
		if !bytes.Equal(out.Bytes(), payload) {
			return fmt.Errorf("flate round trip of rank %d changed its payload", i)
		}

		enc.Reset()
		end = tr.beginOp("none encode", "ckpt.codec")
		t0 = time.Now()
		err = encodeWith(ckpt.NoneCodec(), &enc, payload)
		b.ls.noneEncNs += int64(time.Since(t0))
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

func encodeWith(c ckpt.Codec, dst *bytes.Buffer, payload []byte) error {
	w, err := c.NewWriter(dst)
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		//lint:allow closecheck the write already failed; its error is the one to report
		w.Close()
		return fmt.Errorf("%s encode: %w", c.Name(), err)
	}
	return w.Close()
}

// replayLoad times LoadJobImage on the chain's newest epoch through the
// metered store and relates the bytes it read to the stored bytes the
// epoch resolves to.
func (b *bench) replayLoad(store ckpt.Store, epoch int) error {
	resolved, err := resolvedBytes(store, epoch)
	if err != nil {
		return err
	}
	read0 := b.ls.m.readBytes.Load()
	end := b.tr.beginOp("replay LoadJobImage", "ckpt.restart")
	t0 := time.Now()
	img, err := ckpt.LoadJobImage(store, epoch)
	b.ls.loadNs += int64(time.Since(t0))
	end()
	if err != nil {
		return fmt.Errorf("replaying LoadJobImage: %w", err)
	}
	b.ls.loads++
	b.ls.loadBytes += img.TotalBytes()
	b.ls.loadRead += b.ls.m.readBytes.Load() - read0
	b.ls.loadResolved += resolved
	return nil
}

// resolvedBytes is the stored size of what an epoch's image is made of:
// each whole shard it resolves to, and for a chunk object its own stored
// bytes plus each reused chunk's pro-rata share of its source object.
func resolvedBytes(store ckpt.Store, epoch int) (int64, error) {
	man, err := store.GetManifest(epoch)
	if err != nil {
		return 0, err
	}
	mans := map[int]*ckpt.Manifest{epoch: man}
	source := func(e, rank int) (*ckpt.ShardInfo, error) {
		m := mans[e]
		if m == nil {
			if m, err = store.GetManifest(e); err != nil {
				return nil, err
			}
			mans[e] = m
		}
		for i := range m.Shards {
			if m.Shards[i].Rank == rank {
				return &m.Shards[i], nil
			}
		}
		return nil, fmt.Errorf("epoch %d has no shard for rank %d", e, rank)
	}
	total := int64(0)
	for i := range man.Shards {
		si := &man.Shards[i]
		if si.RawFormat != ckpt.RawFormatCDC {
			ref, err := source(si.RefEpoch, si.Rank)
			if err != nil {
				return 0, err
			}
			total += ref.Size
			continue
		}
		total += si.Size
		for _, c := range si.Chunks {
			if c.SrcEpoch == si.RefEpoch && c.SrcRank == si.Rank {
				continue // inside this object, already counted
			}
			src, err := source(c.SrcEpoch, c.SrcRank)
			if err != nil {
				return 0, err
			}
			raw := src.RawSize
			if src.RawFormat == ckpt.RawFormatCDC {
				raw = src.DeltaRawSize
			}
			total += src.Size * c.Len / raw
		}
	}
	return total, nil
}
