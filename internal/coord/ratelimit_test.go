package coord

import (
	"testing"
	"time"
)

func TestRelayLimiterBurstAndRefill(t *testing.T) {
	l := NewRelayLimiter(1, 2) // 1 attempt/s, burst 2
	cur := time.Unix(1000, 0)
	l.now = func() time.Time { return cur }

	if !l.Allow("r1") || !l.Allow("r1") {
		t.Fatal("burst of 2 should be allowed")
	}
	if l.Allow("r1") {
		t.Fatal("third immediate attempt should be denied")
	}
	// Buckets are per relay.
	if !l.Allow("r2") {
		t.Fatal("other relay has its own bucket")
	}
	// One second refills one token.
	cur = cur.Add(time.Second)
	if !l.Allow("r1") {
		t.Fatal("token should refill after 1s")
	}
	if l.Allow("r1") {
		t.Fatal("bucket should be empty again")
	}
	// Refill is capped at the burst.
	cur = cur.Add(time.Hour)
	if !l.Allow("r1") || !l.Allow("r1") {
		t.Fatal("long idle refills to burst")
	}
	if l.Allow("r1") {
		t.Fatal("refill must not exceed burst")
	}
}

func TestRelayLimiterRetain(t *testing.T) {
	l := NewRelayLimiter(1, 1)
	cur := time.Unix(1000, 0)
	l.now = func() time.Time { return cur }

	if !l.Allow("gone") || l.Allow("gone") {
		t.Fatal("burst of 1")
	}
	l.Retain(func(relay string) bool { return relay == "kept" })
	if len(l.buckets) != 0 {
		t.Fatalf("buckets not pruned: %v", l.buckets)
	}
	// A pruned relay starts over with a fresh burst.
	if !l.Allow("gone") {
		t.Fatal("pruned relay should get a fresh bucket")
	}
	// Retain is a no-op on nil and disabled limiters.
	var nilLimiter *RelayLimiter
	nilLimiter.Retain(nil)
	NewRelayLimiter(0, 0).Retain(nil)
}

func TestRelayLimiterDisabled(t *testing.T) {
	l := NewRelayLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if !l.Allow("r") {
			t.Fatal("zero rate disables limiting")
		}
	}
	var nilLimiter *RelayLimiter
	if !nilLimiter.Allow("r") {
		t.Fatal("nil limiter allows everything")
	}
}
