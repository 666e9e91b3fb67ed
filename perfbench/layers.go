package main

import (
	"io"
	"sync/atomic"

	"mana/internal/ckpt"
	"mana/internal/rt"
)

// meters accumulates per-layer work done and time busy, measured around
// the calls the benchmark's decorators intercept. Times are ns.
type meters struct {
	snapBytes, snapNs       atomic.Int64
	restoreBytes, restoreNs atomic.Int64

	writeBytes, writeNs atomic.Int64
	readBytes, readNs   atomic.Int64
	storeOps, storeErrs atomic.Int64
}

// countWriter counts the bytes passed through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedApp decorates an application with timing around the two calls
// checkpointing makes into it: SnapshotTo at capture and Restore at
// restart. It always offers SnapshotTo so the runtime keeps its streaming
// capture path.
type tracedApp struct {
	rt.App
	rank int
	tr   *tracer
	m    *meters
}

func (a *tracedApp) SnapshotTo(w io.Writer) error {
	lo := a.tr.now()
	cw := &countWriter{w: w}
	var err error
	if ss, ok := a.App.(rt.StreamSnapshotter); ok {
		err = ss.SnapshotTo(cw)
	} else {
		var b []byte
		if b, err = a.App.Snapshot(); err == nil {
			_, err = cw.Write(b)
		}
	}
	hi := a.tr.now()
	a.m.snapNs.Add(hi - lo)
	a.m.snapBytes.Add(cw.n)
	a.tr.record(span{parent: a.tr.op.Load(), name: "SnapshotTo", cat: "apps", tid: a.rank, lo: lo, hi: hi,
		args: map[string]any{"bytes": cw.n}})
	return err
}

func (a *tracedApp) Restore(data []byte) error {
	lo := a.tr.now()
	err := a.App.Restore(data)
	hi := a.tr.now()
	a.m.restoreNs.Add(hi - lo)
	a.m.restoreBytes.Add(int64(len(data)))
	a.tr.record(span{parent: a.tr.op.Load(), name: "Restore", cat: "apps", tid: a.rank, lo: lo, hi: hi,
		args: map[string]any{"bytes": len(data)}})
	return err
}

// traceApps wraps a factory's apps in tracedApp.
func traceApps(f func(int) rt.App, tr *tracer, m *meters) func(int) rt.App {
	return func(rank int) rt.App { return &tracedApp{App: f(rank), rank: rank, tr: tr, m: m} }
}

// meteredStore decorates a ckpt.Store with byte, time, op and error
// counts. The coordinator wraps it in its own ModelStore, so it sees
// exactly the object I/O that reaches the backing store.
type meteredStore struct {
	ckpt.Store
	tr *tracer
	m  *meters
}

func (s *meteredStore) op(err error) {
	s.m.storeOps.Add(1)
	if err != nil {
		s.m.storeErrs.Add(1)
	}
}

func (s *meteredStore) PutShardStream(epoch, rank int) (io.WriteCloser, error) {
	lo := s.tr.now()
	w, err := s.Store.PutShardStream(epoch, rank)
	s.op(err)
	if err != nil {
		return nil, err
	}
	st := &meteredStream{s: s, parent: s.tr.op.Load(), rank: rank, lo: lo, name: "PutShardStream"}
	st.busy(lo)
	return &meteredWriter{w: w, st: st}, nil
}

func (s *meteredStore) OpenShard(epoch, rank int) (io.ReadCloser, error) {
	lo := s.tr.now()
	r, err := s.Store.OpenShard(epoch, rank)
	s.op(err)
	if err != nil {
		return nil, err
	}
	st := &meteredStream{s: s, parent: s.tr.op.Load(), rank: rank, lo: lo, name: "OpenShard", read: true}
	st.busy(lo)
	return &meteredReader{r: r, st: st}, nil
}

func (s *meteredStore) PutManifest(epoch int, man *ckpt.Manifest) error {
	lo := s.tr.now()
	err := s.Store.PutManifest(epoch, man)
	hi := s.tr.now()
	s.op(err)
	s.m.writeNs.Add(hi - lo)
	s.tr.record(span{parent: s.tr.op.Load(), name: "PutManifest", cat: "ckpt.store", lo: lo, hi: hi})
	return err
}

func (s *meteredStore) GetManifest(epoch int) (*ckpt.Manifest, error) {
	lo := s.tr.now()
	man, err := s.Store.GetManifest(epoch)
	s.op(err)
	s.m.readNs.Add(s.tr.now() - lo)
	return man, err
}

func (s *meteredStore) Epochs() ([]int, error) {
	e, err := s.Store.Epochs()
	s.op(err)
	return e, err
}

// SweepUnsealed passes the optional Sweeper side through, so garbage
// collection behaves exactly as on the undecorated store.
func (s *meteredStore) SweepUnsealed(before int) (int64, int, error) {
	sw, ok := s.Store.(ckpt.Sweeper)
	if !ok {
		return 0, 0, nil
	}
	b, n, err := sw.SweepUnsealed(before)
	s.op(err)
	return b, n, err
}

// meteredStream is one open shard object. Only the time inside the store's
// own calls counts as store time; the encoder or decoder runs between them.
type meteredStream struct {
	s      *meteredStore
	parent int64
	rank   int
	lo     int64
	name   string
	read   bool
	bytes  int64
	cover  []interval
}

// busy records the store call that started at lo and has just returned.
func (st *meteredStream) busy(lo int64) {
	hi := st.s.tr.now()
	st.cover = append(st.cover, interval{lo, hi})
	if st.read {
		st.s.m.readNs.Add(hi - lo)
	} else {
		st.s.m.writeNs.Add(hi - lo)
	}
}

func (st *meteredStream) io(n int, err error) {
	st.bytes += int64(n)
	if st.read {
		st.s.m.readBytes.Add(int64(n))
	} else {
		st.s.m.writeBytes.Add(int64(n))
	}
	if err != nil && err != io.EOF {
		st.s.m.storeErrs.Add(1)
	}
}

func (st *meteredStream) close(err error) {
	st.s.op(err)
	st.s.tr.record(span{parent: st.parent, name: st.name, cat: "ckpt.store", tid: st.rank,
		lo: st.lo, hi: st.s.tr.now(), cover: st.cover, args: map[string]any{"bytes": st.bytes}})
}

type meteredWriter struct {
	w  io.WriteCloser
	st *meteredStream
}

func (w *meteredWriter) Write(p []byte) (int, error) {
	lo := w.st.s.tr.now()
	n, err := w.w.Write(p)
	w.st.busy(lo)
	w.st.io(n, err)
	return n, err
}

func (w *meteredWriter) Close() error {
	lo := w.st.s.tr.now()
	err := w.w.Close()
	w.st.busy(lo)
	w.st.close(err)
	return err
}

type meteredReader struct {
	r  io.ReadCloser
	st *meteredStream
}

func (r *meteredReader) Read(p []byte) (int, error) {
	lo := r.st.s.tr.now()
	n, err := r.r.Read(p)
	r.st.busy(lo)
	r.st.io(n, err)
	return n, err
}

func (r *meteredReader) Close() error {
	lo := r.st.s.tr.now()
	err := r.r.Close()
	r.st.busy(lo)
	r.st.close(err)
	return err
}
