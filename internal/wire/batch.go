package wire

import (
	"errors"
	"io"

	"flashflow/internal/cell"
)

// cellReader turns a byte stream into cell-aligned views without copying
// or allocating in steady state: it refills a caller-owned buffer with
// single large Read calls (many cells per syscall) and hands out slices
// aliasing that buffer. The returned slices are valid only until the next
// next/nextBatch call.
//
// The reader never reads past the bytes it needs for whole cells plus
// whatever one Read happened to return; the measurement protocol
// guarantees nothing follows a MsmtEnd cell until the peer has consumed
// the echo, so a refill cannot swallow a subsequent circuit's handshake
// frames.
type cellReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int // unconsumed window into buf
}

// newCellReader wraps r with buf as the refill buffer. buf must hold at
// least one cell; pooled super arenas (cell.GetSuper) are the intended
// source. The cellReader borrows buf for its lifetime — the caller returns
// it to the pool only after the reader is abandoned.
func newCellReader(r io.Reader, buf []byte) *cellReader {
	return &cellReader{r: r, buf: buf}
}

// errShortCellBuf reports a refill buffer smaller than one cell.
var errShortCellBuf = errors.New("wire: cell reader buffer smaller than one cell")

// refill slides the partial remainder to the front of the buffer and reads
// until at least one whole cell is buffered. A stream that ends mid-cell
// yields io.ErrUnexpectedEOF (matching io.ReadFull semantics the previous
// per-cell path had); a stream that ends on a cell boundary yields io.EOF.
func (cr *cellReader) refill() error {
	if len(cr.buf) < cell.Size {
		return errShortCellBuf
	}
	if cr.lo > 0 {
		copy(cr.buf, cr.buf[cr.lo:cr.hi])
		cr.hi -= cr.lo
		cr.lo = 0
	}
	for cr.hi < cell.Size {
		n, err := cr.r.Read(cr.buf[cr.hi:])
		cr.hi += n
		if cr.hi >= cell.Size {
			return nil
		}
		if err != nil {
			if err == io.EOF && cr.hi > cr.lo {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// next returns the next single cell as a view into the buffer.
func (cr *cellReader) next() ([]byte, error) {
	if cr.hi-cr.lo < cell.Size {
		if err := cr.refill(); err != nil {
			return nil, err
		}
	}
	c := cr.buf[cr.lo : cr.lo+cell.Size]
	cr.lo += cell.Size
	return c, nil
}

// nextBatch returns all whole cells currently buffered — at least one,
// refilling if necessary — as one contiguous view, so the caller can
// process and forward a batch with a single Write.
func (cr *cellReader) nextBatch() ([]byte, error) {
	if cr.hi-cr.lo < cell.Size {
		if err := cr.refill(); err != nil {
			return nil, err
		}
	}
	k := (cr.hi - cr.lo) / cell.Size
	b := cr.buf[cr.lo : cr.lo+k*cell.Size]
	cr.lo += k * cell.Size
	return b, nil
}
