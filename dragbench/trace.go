package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one round share Op;
// Parent is the enclosing span's ID (0 at the top). CPUNs is the CPU time
// the whole process spent inside the span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	CPUNs   int64  `json:"cpuNs"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timing is an open interval. Untraced runs time the same calls with a
// nil tracer, which records nothing.
type timing struct {
	tr   *tracer
	id   int
	cpu0 time.Duration
}

// begin opens a timing around a call; parent is the enclosing timing (its
// zero value for a top-level span) and op the round it belongs to.
func (b *harness) begin(name string, parent timing, op int) timing {
	t := timing{tr: b.tr, cpu0: readUsage().cpu}
	if b.tr != nil {
		t.id = len(b.tr.spans) + 1
		b.tr.spans = append(b.tr.spans, span{
			ID: t.id, Parent: parent.id, Op: op, Name: name,
			StartNs: time.Since(b.tr.t0).Nanoseconds(),
		})
	}
	return t
}

// end closes the timing and returns the CPU time the process spent in
// it, all threads together. Every metric is built from CPU time: on a
// virtual machine whose host takes the CPU away for a varying share of the
// time, wall time moves with that share and CPU time much less (see
// README.md). Spans keep both.
func (t timing) end() time.Duration {
	cpu := readUsage().cpu - t.cpu0
	if t.tr != nil {
		s := &t.tr.spans[t.id-1]
		s.EndNs = time.Since(t.tr.t0).Nanoseconds()
		s.CPUNs = cpu.Nanoseconds()
	}
	return cpu
}

// layerTime is the total and self wall time, and the CPU time, of every
// span of one name. A span's self time is its duration minus the part of
// it its children cover.
type layerTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
	CPUMs   float64 `json:"cpuMs"`
}

func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Spans++
		lt.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		lt.SelfMs += float64(s.EndNs-s.StartNs-covered) / 1e6
		lt.CPUMs += float64(s.CPUNs) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	cur := parent.StartNs
	for _, k := range kids {
		start, end := max(k.StartNs, cur), min(k.EndNs, parent.EndNs)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// writeFile writes the spans and the per-layer self times as JSON.
func (t *tracer) writeFile(path string) error {
	data, err := json.MarshalIndent(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{selfTimes(t.spans), t.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
