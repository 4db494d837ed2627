package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Name is "<layer>.<call>"; Parent indexes the
// span that caused it (-1 for a root); ID is the campaign or session
// the call belongs to, so the spans of one request share it.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      int    `json:"id"`
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer is the untraced pass: the workloads install no decorator at
// all, so begin/end are never reached through one.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span and returns its index, the handle end takes and
// the parent of any span it causes.
func (t *tracer) begin(name string, parent, id int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent, ID: id})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].EndNS = now
	t.mu.Unlock()
}

// count adds to a named counter recorded at the same boundary as the
// spans, so ratios are measured where the work happens.
func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// durations returns the duration in nanoseconds of every closed span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.EndNS >= 0 {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfTimes attributes wall-clock to layers. A span's self time is its
// duration minus the part of that interval its child spans cover; when
// spans of several goroutines are open at once, every instant is
// shared equally among the spans that have no open child at that
// instant, so the per-layer totals add up to the wall-clock the root
// spans cover rather than to a multiple of it. For a single chain of
// nested spans this is exactly "span minus the interval its children
// cover". Unclosed spans are ignored.
func selfTimes(spans []span) map[string]float64 {
	type event struct {
		at    int64
		open  bool
		index int
	}
	events := make([]event, 0, 2*len(spans))
	for i := range spans {
		if spans[i].EndNS < spans[i].StartNS {
			continue
		}
		events = append(events, event{spans[i].StartNS, true, i}, event{spans[i].EndNS, false, i})
	}
	// Closes sort before opens at one instant, and among opens a parent
	// (lower index: it began first) before its child.
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.open != eb.open {
			return !ea.open
		}
		if ea.open {
			return ea.index < eb.index
		}
		return ea.index > eb.index
	})

	// Layers are few; index them once so the sweep touches slices only.
	layerIndex := make(map[string]int)
	var layers []string
	layerOfSpan := make([]int, len(spans))
	for i := range spans {
		l := layerOf(spans[i].Name)
		li, ok := layerIndex[l]
		if !ok {
			li = len(layers)
			layerIndex[l] = li
			layers = append(layers, l)
		}
		layerOfSpan[i] = li
	}

	openChildren := make([]int, len(spans))
	leaves := make([]int, len(layers)) // per layer: open spans with no open child
	nLeaves := 0
	selfNS := make([]float64, len(layers))
	setLeaf := func(i, delta int) {
		leaves[layerOfSpan[i]] += delta
		nLeaves += delta
	}
	var last int64
	for _, e := range events {
		if dt := e.at - last; dt > 0 && nLeaves > 0 {
			for li, n := range leaves {
				if n > 0 {
					selfNS[li] += float64(dt) * float64(n) / float64(nLeaves)
				}
			}
		}
		last = e.at
		p := spans[e.index].Parent
		hasParent := p >= 0 && p < len(spans) && spans[p].EndNS >= spans[p].StartNS
		if e.open {
			setLeaf(e.index, +1)
			if hasParent {
				if openChildren[p] == 0 {
					setLeaf(p, -1)
				}
				openChildren[p]++
			}
		} else {
			if openChildren[e.index] == 0 {
				setLeaf(e.index, -1)
			}
			// A parent closing at this same instant sorts after its child
			// (lower index), so it is still open here. A child that
			// outlives its parent would re-enter a closed span; decorators
			// close children first, so that guard only protects the
			// arithmetic from malformed input.
			if hasParent && openChildren[p] > 0 {
				openChildren[p]--
				if openChildren[p] == 0 && spans[p].EndNS >= e.at {
					setLeaf(p, +1)
				}
			}
		}
	}
	self := make(map[string]float64, len(layers))
	for li, l := range layers {
		self[l] = selfNS[li] / 1e9
	}
	return self
}

// writeTrace writes the spans and counts as JSON lines.
func (t *tracer) writeTrace(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	names := make([]string, 0, len(t.counts))
	for name := range t.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := enc.Encode(map[string]any{"count": name, "value": t.counts[name]}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
