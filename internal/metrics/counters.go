package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counters is a small thread-safe named-counter registry. Long-running
// services (internal/coord's continuous measurement coordinator) use it to
// expose operational state — rounds completed, slots retried, pool hits —
// alongside the paper's offline analyses that the rest of this package
// implements.
//
// Each counter is an atomic cell; the lock guards only the name → cell
// map. A hot path resolves its cells once with Counter and then counts
// without touching the lock. Snapshot and AppendSorted read each cell
// atomically, not every cell at one instant.
type Counters struct {
	mu   sync.RWMutex
	vals map[string]*atomic.Int64
}

// NewCounters creates an empty registry.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]*atomic.Int64)}
}

// Counter returns the named counter's cell, creating it at zero first.
// The cell stays the registry's for its lifetime: adding to it or
// storing into it is the same as Add or Set under its name.
func (c *Counters) Counter(name string) *atomic.Int64 {
	c.mu.RLock()
	v := c.vals[name]
	c.mu.RUnlock()
	if v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v = c.vals[name]; v == nil {
		v = new(atomic.Int64)
		c.vals[name] = v
	}
	return v
}

// Add adds delta to the named counter, creating it at zero first.
func (c *Counters) Add(name string, delta int64) { c.Counter(name).Add(delta) }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Set overwrites the named counter (for gauges like pool idle size).
func (c *Counters) Set(name string, v int64) { c.Counter(name).Store(v) }

// Get returns the named counter's value (zero if never touched).
func (c *Counters) Get(name string) int64 {
	c.mu.RLock()
	v := c.vals[name]
	c.mu.RUnlock()
	if v == nil {
		return 0
	}
	return v.Load()
}

// Snapshot returns a copy of every counter.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.vals))
	for k, v := range c.vals {
		out[k] = v.Load()
	}
	return out
}

// KV is one named counter value in a deterministic snapshot.
type KV struct {
	Name  string
	Value int64
}

// AppendSorted appends every counter to buf in ascending name order and
// returns the extended slice. Passing a reused buffer (buf[:0]) makes a
// steady-state snapshot allocation-free; the Prometheus encoder and the
// v3bw observability plane render from this ordering so their output is
// byte-deterministic for a fixed counter state — map iteration order
// never leaks into exposition output.
func (c *Counters) AppendSorted(buf []KV) []KV {
	start := len(buf)
	c.mu.RLock()
	for k, v := range c.vals {
		buf = append(buf, KV{Name: k, Value: v.Load()})
	}
	c.mu.RUnlock()
	tail := buf[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i].Name < tail[j].Name })
	return buf
}

// SortedSnapshot returns every counter in ascending name order — the
// deterministic counterpart of Snapshot for output paths that diff runs.
func (c *Counters) SortedSnapshot() []KV {
	return c.AppendSorted(nil)
}

// String renders the counters sorted by name, one "name=value" per line —
// the format coordd prints on shutdown.
func (c *Counters) String() string {
	var b strings.Builder
	for _, kv := range c.SortedSnapshot() {
		fmt.Fprintf(&b, "%s=%d\n", kv.Name, kv.Value)
	}
	return b.String()
}
