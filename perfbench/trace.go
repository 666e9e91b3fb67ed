package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. cover, when set, lists the sub-intervals the layer was
// actually busy (a store stream is open across its whole encode, but only
// its Write/Read calls are store time); nil means the whole span.
type span struct {
	id, parent int64
	name, cat  string // cat is the layer: apps, ckpt.store, rt, mpi, ...
	tid        int
	lo, hi     int64 // ns since the tracer started
	cover      []interval
	args       map[string]any
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run stays free of tracing cost.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	op     atomic.Int64 // id of the operation span calls into layers nest under

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record stores a finished span and returns its id.
func (t *tracer) record(s span) int64 {
	s.id = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.id
}

// beginOp opens a top-level operation span; layer calls made until the
// returned function runs nest under it.
func (t *tracer) beginOp(name, cat string) (end func()) {
	if t == nil {
		return func() {}
	}
	id := t.nextID.Add(1)
	prev := t.op.Swap(id)
	lo := t.now()
	return func() {
		hi := t.now()
		t.op.Store(prev)
		t.mu.Lock()
		t.spans = append(t.spans, span{id: id, parent: prev, name: name, cat: cat, lo: lo, hi: hi})
		t.mu.Unlock()
	}
}

// selfTimes returns each layer's self time in ns: a span's duration (or its
// busy cover) minus what its children's busy time covers inside it.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]interval)
	for i := range t.spans {
		s := &t.spans[i]
		children[s.parent] = append(children[s.parent], s.busy()...)
	}
	out := make(map[string]int64)
	for i := range t.spans {
		s := &t.spans[i]
		for _, c := range s.busy() {
			out[s.cat] += selfTime(c, children[s.id])
		}
	}
	return out
}

// covered returns, summed over the spans whose name starts with prefix, the
// time each layer's child calls cover inside them. Children that overlap
// (ranks snapshot concurrently, shards stream in parallel) count once, so a
// layer's covered time never exceeds its parents' duration.
func (t *tracer) covered(prefix string) map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byParent := make(map[int64]map[string][]interval)
	for i := range t.spans {
		s := &t.spans[i]
		if byParent[s.parent] == nil {
			byParent[s.parent] = make(map[string][]interval)
		}
		byParent[s.parent][s.cat] = append(byParent[s.parent][s.cat], s.busy()...)
	}
	out := make(map[string]int64)
	for i := range t.spans {
		p := &t.spans[i]
		if !strings.HasPrefix(p.name, prefix) {
			continue
		}
		whole := interval{p.lo, p.hi}
		for cat, kids := range byParent[p.id] {
			out[cat] += whole.hi - whole.lo - selfTime(whole, kids)
		}
	}
	return out
}

func (s *span) busy() []interval {
	if s.cover != nil {
		return s.cover
	}
	return []interval{{s.lo, s.hi}}
}

// chromeEvent is one Chrome trace-event "complete" event (opens in Perfetto
// and chrome://tracing). Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		if s.cover != nil {
			busy := int64(0)
			for _, c := range s.cover {
				busy += c.hi - c.lo
			}
			args["busy_us"] = float64(busy) / 1e3
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.lo) / 1e3, Dur: float64(s.hi-s.lo) / 1e3,
			Pid: 1, Tid: s.tid, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		//lint:allow closecheck the encode already failed; its error is the one to report
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}
