package cell

import (
	"sync"
	"sync/atomic"
)

// BatchCells is the data plane's batch size: the smallest paced echo
// write and the unit of the per-circuit in-flight window. 32 cells ≈
// 16 KiB is large enough that per-write overhead is noise and small
// enough that pacing per batch stays smooth at low rates. A super arena
// (below) carries SuperBatches of them.
const BatchCells = 32

// BatchBytes is the byte length of one batch.
const BatchBytes = BatchCells * Size

// SuperBatches is the number of 32-cell batches carried by one pooled
// super arena. A super arena is the unit of the multiplexed data plane's
// I/O: the measurer's send loop writes up to SuperCells cells from one
// arena with a single Write, and readers refill into one, so a single
// syscall moves up to SuperBatches×BatchCells cells.
const SuperBatches = 8

// SuperCells is the number of cells carried by one super arena.
const SuperCells = SuperBatches * BatchCells

// SuperBytes is the byte length of one pooled super arena.
const SuperBytes = SuperBatches * BatchBytes

// superPool recycles super arenas across measurement connections.
var superPool = sync.Pool{
	New: func() any {
		b := make([]byte, SuperBytes)
		return &b
	},
}

// GetSuper returns a SuperBytes-long arena from the pool. Contents are
// unspecified (arenas are reused without clearing); callers own the arena
// until they pass it to PutSuper and must not retain any slice aliasing it
// afterwards. See DESIGN.md "Buffer ownership" for the rules.
func GetSuper() *[]byte {
	superGets.Add(1)
	return superPool.Get().(*[]byte)
}

// PutSuper returns an arena obtained from GetSuper to the pool. It
// tolerates callers that resliced the arena, restoring the full length;
// nil or foreign (too-small) buffers are dropped rather than poisoning
// the pool.
func PutSuper(b *[]byte) {
	if b == nil || cap(*b) < SuperBytes {
		return
	}
	*b = (*b)[:SuperBytes]
	superPuts.Add(1)
	superPool.Put(b)
}

// Pool accounting: cumulative Get/Put counts. An atomic counter costs
// ~1ns next to a sync.Pool round-trip and buys a leak oracle — any
// code path that takes a pooled buffer and errors out without returning it
// shows up as a Get/Put delta. Counters only ever grow; callers diff
// snapshots around the region under test.

var superGets, superPuts atomic.Uint64

// PoolStats is a snapshot of the cumulative pool traffic.
type PoolStats struct {
	SuperGets, SuperPuts uint64
}

// ReadPoolStats returns the cumulative Get/Put counts for the super pool.
// Leak tests snapshot before and after driving a code path (with every
// goroutine joined) and assert the Get and Put deltas match.
func ReadPoolStats() PoolStats {
	return PoolStats{
		SuperGets: superGets.Load(),
		SuperPuts: superPuts.Load(),
	}
}

// Outstanding returns the super arenas taken but not yet returned in the
// traffic between two snapshots (s - earlier).
func (s PoolStats) Outstanding(earlier PoolStats) int64 {
	return int64(s.SuperGets-earlier.SuperGets) - int64(s.SuperPuts-earlier.SuperPuts)
}
