package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCountersBasic(t *testing.T) {
	c := NewCounters()
	if got := c.Get("missing"); got != 0 {
		t.Fatalf("untouched counter: %d", got)
	}
	c.Inc("a")
	c.Add("a", 4)
	c.Set("b", 7)
	if got := c.Get("a"); got != 5 {
		t.Fatalf("a = %d, want 5", got)
	}
	snap := c.Snapshot()
	if snap["a"] != 5 || snap["b"] != 7 {
		t.Fatalf("snapshot: %v", snap)
	}
	// Snapshot is a copy.
	snap["a"] = 99
	if got := c.Get("a"); got != 5 {
		t.Fatalf("snapshot aliasing: a = %d", got)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc("n")
			}
		}()
	}
	wg.Wait()
	if got := c.Get("n"); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
}

func TestCountersStringSorted(t *testing.T) {
	c := NewCounters()
	c.Set("zz", 1)
	c.Set("aa", 2)
	s := c.String()
	if strings.Index(s, "aa=2") > strings.Index(s, "zz=1") {
		t.Fatalf("not sorted: %q", s)
	}
}

// TestSortedSnapshotOrder is the regression test for deterministic
// ordering: every call must return names in ascending order, and
// AppendSorted must leave a caller's existing prefix untouched.
func TestSortedSnapshotOrder(t *testing.T) {
	c := NewCounters()
	names := []string{"m", "zz", "a", "coord_round", "b2", "b10", "B"}
	for i, n := range names {
		c.Set(n, int64(i))
	}
	for trial := 0; trial < 10; trial++ {
		kvs := c.SortedSnapshot()
		if len(kvs) != len(names) {
			t.Fatalf("snapshot has %d entries, want %d", len(kvs), len(names))
		}
		for i := 1; i < len(kvs); i++ {
			if kvs[i-1].Name >= kvs[i].Name {
				t.Fatalf("trial %d: %q not before %q", trial, kvs[i-1].Name, kvs[i].Name)
			}
		}
	}

	// Appending after a pre-existing prefix sorts only the tail.
	prefix := []KV{{Name: "zzz_first", Value: -1}}
	out := c.AppendSorted(prefix)
	if out[0].Name != "zzz_first" || out[0].Value != -1 {
		t.Fatalf("prefix disturbed: %+v", out[0])
	}
	tail := out[1:]
	for i := 1; i < len(tail); i++ {
		if tail[i-1].Name >= tail[i].Name {
			t.Fatalf("tail not sorted: %q before %q", tail[i-1].Name, tail[i].Name)
		}
	}
}

// TestCountersConcurrentMixed runs every operation at once on names that
// exist before the run and names the run creates, for -race; the sums
// must come out exact and the cells Counter returns must be the ones the
// name-based calls count into.
func TestCountersConcurrentMixed(t *testing.T) {
	c := NewCounters()
	c.Add("old_sum", 0)
	c.Set("old_gauge", 5)
	const workers, iters = 6, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cell := c.Counter("new_cell")
			var kvs []KV
			for i := 0; i < iters; i++ {
				c.Inc("old_sum")
				c.Add(fmt.Sprintf("new_%d", i%7), 2)
				cell.Add(1)
				c.Set("old_gauge", int64(w))
				c.Counter("old_sum").Add(1)
				if i%50 == 0 {
					_ = c.Snapshot()
					kvs = c.AppendSorted(kvs[:0])
					for k := 1; k < len(kvs); k++ {
						if kvs[k-1].Name >= kvs[k].Name {
							t.Errorf("AppendSorted out of order: %q before %q", kvs[k-1].Name, kvs[k].Name)
							return
						}
					}
					_ = c.Get("new_cell")
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Get("old_sum"), int64(2*workers*iters); got != want {
		t.Fatalf("old_sum = %d, want %d", got, want)
	}
	if got, want := c.Get("new_cell"), int64(workers*iters); got != want {
		t.Fatalf("new_cell = %d, want %d", got, want)
	}
	var newSum int64
	for i := 0; i < 7; i++ {
		newSum += c.Get(fmt.Sprintf("new_%d", i))
	}
	if want := int64(2 * workers * iters); newSum != want {
		t.Fatalf("new_* sum = %d, want %d", newSum, want)
	}
	if g := c.Get("old_gauge"); g < 0 || g >= workers {
		t.Fatalf("old_gauge = %d, want a worker index", g)
	}
	if c.Counter("old_sum") != c.Counter("old_sum") {
		t.Fatal("Counter returned two cells for one name")
	}
	if _, ok := c.Snapshot()["never_touched"]; ok || c.Get("never_touched") != 0 {
		t.Fatal("Get created a counter")
	}
}
