package cell

import (
	"sync"
	"sync/atomic"
)

// BatchCells is the number of cells carried by one pooled batch buffer.
// The measurement data plane encodes/decodes up to BatchCells cells into
// one contiguous buffer and moves them with a single Write/Read, so this
// constant sets the syscall amortization factor of the hot path. 32 cells
// ≈ 16 KiB per batch: large enough that the per-syscall overhead is noise,
// small enough that pacing per batch stays smooth at low rates.
const BatchCells = 32

// BatchBytes is the byte length of one pooled batch buffer.
const BatchBytes = BatchCells * Size

// batchPool recycles batch buffers across measurement sockets and circuit
// serves. Buffers are handed out as *[]byte so Get/Put themselves do not
// allocate a slice header on the heap.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]byte, BatchBytes)
		return &b
	},
}

// GetBatch returns a BatchBytes-long buffer from the pool. Contents are
// unspecified (buffers are reused without clearing); callers own the
// buffer until they pass it to PutBatch and must not retain any slice
// aliasing it afterwards. See DESIGN.md "Buffer ownership" for the rules.
func GetBatch() *[]byte {
	batchGets.Add(1)
	return batchPool.Get().(*[]byte)
}

// PutBatch returns a buffer obtained from GetBatch to the pool. It
// tolerates callers that resliced the buffer, restoring the full length;
// nil or foreign (too-small) buffers are dropped rather than poisoning
// the pool.
func PutBatch(b *[]byte) {
	if b == nil || cap(*b) < BatchBytes {
		return
	}
	*b = (*b)[:BatchBytes]
	batchPuts.Add(1)
	batchPool.Put(b)
}

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

// GetSuper returns a SuperBytes-long arena from the pool, under the same
// ownership rules as GetBatch (contents unspecified; return with PutSuper;
// no aliasing slice may outlive the return).
func GetSuper() *[]byte {
	superGets.Add(1)
	return superPool.Get().(*[]byte)
}

// PutSuper returns an arena obtained from GetSuper to the pool.
func PutSuper(b *[]byte) {
	if b == nil || cap(*b) < SuperBytes {
		return
	}
	*b = (*b)[:SuperBytes]
	superPuts.Add(1)
	superPool.Put(b)
}

// Pool accounting: cumulative Get/Put counts per pool. An atomic counter
// costs ~1ns next to a sync.Pool round-trip and buys a leak oracle — any
// code path that takes a pooled buffer and errors out without returning it
// shows up as a Get/Put delta. Counters only ever grow; callers diff
// snapshots around the region under test.

var batchGets, batchPuts, superGets, superPuts atomic.Uint64

// PoolStats is a snapshot of the cumulative pool traffic.
type PoolStats struct {
	BatchGets, BatchPuts uint64
	SuperGets, SuperPuts uint64
}

// ReadPoolStats returns the cumulative Get/Put counts for the batch and
// super pools. Leak tests snapshot before and after driving a code path
// (with every goroutine joined) and assert the Get and Put deltas match.
func ReadPoolStats() PoolStats {
	return PoolStats{
		BatchGets: batchGets.Load(),
		BatchPuts: batchPuts.Load(),
		SuperGets: superGets.Load(),
		SuperPuts: superPuts.Load(),
	}
}

// Outstanding returns buffers taken but not yet returned, per pool, for
// the traffic between two snapshots (s - earlier).
func (s PoolStats) Outstanding(earlier PoolStats) (batch, super int64) {
	batch = int64(s.BatchGets-earlier.BatchGets) - int64(s.BatchPuts-earlier.BatchPuts)
	super = int64(s.SuperGets-earlier.SuperGets) - int64(s.SuperPuts-earlier.SuperPuts)
	return batch, super
}
