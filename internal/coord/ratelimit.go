package coord

import (
	"sync"
	"time"
)

// RelayLimiter rate-limits measurement attempts per relay: a flapping
// relay whose slots keep failing would otherwise cycle through the retry
// queue as fast as workers free up, monopolizing team capacity that
// healthy relays' slots need. Each relay has a token bucket of attempts;
// Allow is non-blocking — a denied attempt goes back through the backoff
// path instead of queueing.
type RelayLimiter struct {
	rate  float64 // attempt tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*attemptBucket
	now     func() time.Time // injectable for tests
}

type attemptBucket struct {
	tokens float64
	last   time.Time
}

// NewRelayLimiter creates a limiter granting ratePerSec attempts per
// second per relay with the given burst. A nonpositive rate disables
// limiting (Allow always succeeds).
func NewRelayLimiter(ratePerSec float64, burst int) *RelayLimiter {
	if burst <= 0 {
		burst = 1
	}
	return &RelayLimiter{
		rate:    ratePerSec,
		burst:   float64(burst),
		buckets: make(map[string]*attemptBucket),
		now:     time.Now,
	}
}

// Retain drops the buckets of every relay keep rejects. The coordinator
// calls it with each round's population membership so relays that leave
// the network do not leak buckets over a long-lived run.
func (l *RelayLimiter) Retain(keep func(relay string) bool) {
	if l == nil || l.rate <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for relay := range l.buckets {
		if !keep(relay) {
			delete(l.buckets, relay)
		}
	}
}

// Allow reports whether the relay may be attempted now, consuming one
// token if so.
func (l *RelayLimiter) Allow(relay string) bool {
	if l == nil || l.rate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[relay]
	if !ok {
		b = &attemptBucket{tokens: l.burst, last: now}
		l.buckets[relay] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
