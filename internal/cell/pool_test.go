package cell

import "testing"

func TestSuperPoolRoundTrip(t *testing.T) {
	b := GetSuper()
	if len(*b) != SuperBytes {
		t.Fatalf("arena length: got %d want %d", len(*b), SuperBytes)
	}
	// Reslice (as protocol code does when flushing a partial write) and
	// return: the pool must restore the full length on the next Get.
	*b = (*b)[:Size]
	PutSuper(b)
	c := GetSuper()
	defer PutSuper(c)
	if len(*c) != SuperBytes {
		t.Fatalf("recycled arena length: got %d want %d", len(*c), SuperBytes)
	}
}

func TestSuperPoolRejectsForeignBuffers(t *testing.T) {
	before := ReadPoolStats()
	PutSuper(nil) // must not panic
	small := make([]byte, BatchBytes)
	PutSuper(&small) // dropped, not pooled
	if n := ReadPoolStats().Outstanding(before); n != 0 {
		t.Fatalf("foreign buffers counted as returns: %d outstanding", n)
	}
	b := GetSuper()
	defer PutSuper(b)
	if len(*b) != SuperBytes {
		t.Fatalf("pool returned foreign buffer of length %d", len(*b))
	}
}

func TestBatchConstants(t *testing.T) {
	if BatchBytes != BatchCells*Size {
		t.Fatalf("BatchBytes %d != BatchCells*Size %d", BatchBytes, BatchCells*Size)
	}
	if BatchCells < 1 {
		t.Fatal("BatchCells must be positive")
	}
}
