package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code around
// a public function of that layer. Calls too short to time one by one
// (cache accesses, bus grants, stream draws) are timed in batches of at
// least batchCalls, and Count says how many calls the span covers.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"` // 0 = top level
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer started
	EndUS   float64 `json:"end_us"`
	Req     int     `json:"req,omitempty"` // HTTP request id
	Count   int     `json:"count,omitempty"`
}

// batchCalls is the smallest batch in which sub-microsecond calls are
// timed, so that reading the clock stays a negligible share of a span.
const batchCalls = 4096

// tracer keeps spans in memory until the traced child writes them out.
// A nil *tracer records nothing, so the timed runs pass nil and pay only
// a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name string, parent int, start, end time.Time, count, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: float64(start.Sub(t.t0)) / 1e3,
		EndUS:   float64(end.Sub(t.t0)) / 1e3,
		Req:     req, Count: count,
	})
	return id
}

// open starts a span whose end is set by close; children recorded in
// between name its id as their parent.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.record(name, parent, now, now, 0, 0)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := float64(time.Since(t.t0)) / 1e3
	t.mu.Lock()
	t.spans[id-1].EndUS = end
	t.mu.Unlock()
}

// layerTime sums one span name's duration and self time: the span's
// duration minus the part of it that its children cover.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes folds the spans by name. Children that overlap (engine jobs
// on parallel workers) count once: self time subtracts the union of the
// children's intervals, clipped to the parent.
func selfTimes(spans []span) []layerTime {
	kids := make([][][2]float64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		dur := s.EndUS - s.StartUS
		lt.Spans++
		lt.Calls += max(s.Count, 1)
		lt.TotalS += dur / 1e6
		lt.SelfS += (dur - covered(kids[s.ID], s.StartUS, s.EndUS)) / 1e6
	}
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered returns the length of the union of ivs inside [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes every span plus the per-name self times to path as
// JSON, creating its directory.
func (t *tracer) writeSpans(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Layers   []layerTime `json:"layers"`
		Spans    []span      `json:"spans"`
	}{workload, seed, selfTimes(t.spans), t.spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// printSelfTimes writes the top of the self-time table, the quick read
// of where a traced run spent its host time.
func (t *tracer) printSelfTimes(w io.Writer, top int) {
	t.mu.Lock()
	lts := selfTimes(t.spans)
	t.mu.Unlock()
	fmt.Fprintf(w, "%-34s %7s %9s %10s %10s\n", "span", "spans", "calls", "total s", "self s")
	for i, lt := range lts {
		if i == top {
			break
		}
		fmt.Fprintf(w, "%-34s %7d %9d %10.4f %10.4f\n", lt.Name, lt.Spans, lt.Calls, lt.TotalS, lt.SelfS)
	}
}
