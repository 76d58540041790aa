package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/tensor"
)

// span is one call the benchmark made into a module. Spans of one
// operation (one suite, one replay, one trial) share Op; Parent is the
// enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths pass nil. It is safe for
// concurrent use.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp int
	values map[string][]float64 // measured quantities that are not times
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string][]float64{}} }

// newOp returns a fresh operation identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its identifier.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// addValue records one measured quantity that is not a span (bytes,
// ratios, allocations).
func (t *tracer) addValue(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.values[name] = append(t.values[name], v)
}

// durations returns the total durations of the closed spans called
// name, in recording order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// perOpSums returns, per operation, the summed duration of its spans
// called name, in operation order.
func (t *tracer) perOpSums(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	idx := map[int]int{}
	for _, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		i, ok := idx[s.Op]
		if !ok {
			i = len(out)
			idx[s.Op] = i
			out = append(out, 0)
		}
		out[i] += s.dur()
	}
	return out
}

// medianOf returns the median duration of the spans called name.
func (t *tracer) medianOf(name string) time.Duration { return median(t.durations(name)) }

// sum returns the sum of the quantities recorded under name.
func (t *tracer) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tensor.Sum(t.values[name])
}

// selfByModule sums the self time of the spans recorded from index
// from to index to (a span's duration less that of its children,
// floored at zero when children overlap) per module, the part of the
// span name before its first dot.
func (t *tracer) selfByModule(from, to int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans[from:to] {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans[from:to] {
		if s.End == 0 {
			continue
		}
		self := s.dur() - child[from+i]
		if self < 0 {
			self = 0
		}
		mod, _, _ := strings.Cut(s.Name, ".")
		out[mod] += self
	}
	return out
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
