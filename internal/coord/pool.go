package coord

import (
	"net"
	"sync"
	"time"

	"flashflow/internal/wire"
)

// Pool is a keyed connection pool for measurement connections, keyed per
// (target, measurer identity) pair. A continuously running coordinator
// measures every relay every round; the pool keeps each round's
// authenticated connections alive so the next round's slots skip the TCP
// dial and identity handshake (the target keeps a connection's
// authentication for its lifetime, and internal/wire builds a fresh set
// of multiplexed measurement circuits per slot on a reused connection —
// one warm connection per target per measurer carries the whole slot, so
// the pool's steady-state size is the team size times the population, not
// times the socket count).
//
// Idle connections are evicted when they outlive IdleTTL or fail the
// health probe, and at most MaxIdlePerTarget are retained per key; the
// pool therefore never grows beyond cap even if a round briefly opens more
// connections than it can park.
type Pool struct {
	// MaxIdlePerTarget bounds retained idle connections per target.
	MaxIdlePerTarget int
	// IdleTTL is how long an idle connection stays eligible for reuse.
	IdleTTL time.Duration

	mu     sync.Mutex
	idle   map[string][]*idleEntry
	closed bool

	// Counters; guarded by mu.
	hits, misses, evictions, overflow int64
}

type idleEntry struct {
	conn   *pooledConn
	parked time.Time
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	// Hits counts dials served from the pool; Misses counts real dials.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts idle connections dropped as stale or unhealthy;
	// Overflow counts healthy returns closed because the target's idle
	// list was full.
	Evictions int64 `json:"evictions"`
	Overflow  int64 `json:"overflow"`
	// Idle is the current number of parked connections across targets.
	Idle int `json:"idle"`
}

// NewPool creates a pool. Nonpositive arguments select the defaults of 4
// idle connections per target and a 90-second TTL.
func NewPool(maxIdlePerTarget int, idleTTL time.Duration) *Pool {
	if maxIdlePerTarget <= 0 {
		maxIdlePerTarget = 4
	}
	if idleTTL <= 0 {
		idleTTL = 90 * time.Second
	}
	return &Pool{
		MaxIdlePerTarget: maxIdlePerTarget,
		IdleTTL:          idleTTL,
		idle:             make(map[string][]*idleEntry),
	}
}

// Dialer wraps a wire.Dialer with pool lookup: Get a parked connection
// under the given key if a healthy one exists, otherwise dial fresh. The
// returned connections implement wire.Session, so the measurer skips the
// identity handshake on reuse and marks clean completions reusable; their
// Close parks reusable connections back into the pool.
//
// The key must identify both the target and the dialing measurer identity
// (e.g. "relay7/m0"): the target binds authentication to the connection,
// so sharing a key across identities would let one measurer silently ride
// a connection authenticated as another.
func (p *Pool) Dialer(key string, dial wire.Dialer) wire.Dialer {
	return func() (net.Conn, error) {
		if c := p.get(key); c != nil {
			return c, nil
		}
		raw, err := dial()
		if err != nil {
			return nil, err
		}
		return &pooledConn{Conn: raw, pool: p, key: key}, nil
	}
}

// get pops the most recently parked healthy connection for the key.
func (p *Pool) get(key string) *pooledConn {
	p.mu.Lock()
	for {
		list := p.idle[key]
		n := len(list)
		if n == 0 {
			p.misses++
			p.mu.Unlock()
			return nil
		}
		e := list[n-1]
		p.idle[key] = list[:n-1]
		if time.Since(e.parked) > p.IdleTTL {
			p.evictions++
			p.mu.Unlock()
			e.conn.Conn.Close()
			p.mu.Lock()
			continue
		}
		// Probe outside the lock: the probe does a deadline read.
		p.mu.Unlock()
		if !connHealthy(e.conn.Conn) {
			e.conn.Conn.Close()
			p.mu.Lock()
			p.evictions++
			continue
		}
		p.mu.Lock()
		p.hits++
		p.mu.Unlock()
		e.conn.reusable = false
		return e.conn
	}
}

// put parks a reusable connection, closing it instead if the pool is
// closed or the key's idle list is at cap.
func (p *Pool) put(c *pooledConn) error {
	p.mu.Lock()
	if p.closed || len(p.idle[c.key]) >= p.MaxIdlePerTarget {
		p.overflow++
		p.mu.Unlock()
		return c.Conn.Close()
	}
	p.idle[c.key] = append(p.idle[c.key], &idleEntry{conn: c, parked: time.Now()})
	p.mu.Unlock()
	return nil
}

// Prune drops idle connections past their TTL; the coordinator calls it
// between rounds so a shrunk schedule does not pin dead sockets.
func (p *Pool) Prune() {
	p.mu.Lock()
	var stale []*idleEntry
	for key, list := range p.idle {
		kept := list[:0]
		for _, e := range list {
			if time.Since(e.parked) > p.IdleTTL {
				stale = append(stale, e)
				p.evictions++
			} else {
				kept = append(kept, e)
			}
		}
		p.idle[key] = kept
	}
	p.mu.Unlock()
	for _, e := range stale {
		e.conn.Conn.Close()
	}
}

// Close closes every idle connection and makes future puts close instead
// of parking.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var all []*idleEntry
	for _, list := range p.idle {
		all = append(all, list...)
	}
	p.idle = make(map[string][]*idleEntry)
	p.mu.Unlock()
	for _, e := range all {
		e.conn.Conn.Close()
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, list := range p.idle {
		idle += len(list)
	}
	return PoolStats{
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
		Overflow:  p.overflow,
		Idle:      idle,
	}
}

// connHealthy probes an idle connection with a zero-deadline read: a
// timeout means the peer is quietly waiting (healthy); EOF, any other
// error, or stray bytes (protocol desync) mean the connection is unusable.
func connHealthy(c net.Conn) bool {
	if err := c.SetReadDeadline(time.Now()); err != nil {
		return false
	}
	var b [1]byte
	_, err := c.Read(b[:])
	if rerr := c.SetReadDeadline(time.Time{}); rerr != nil {
		return false
	}
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// pooledConn is a pool-managed connection. It implements wire.Session so
// the measurer can skip re-authentication and flag clean completions; its
// Close parks the connection instead of closing when the last measurement
// ended cleanly. The session fields are only touched by the goroutine
// currently measuring on the connection; handoff between goroutines is
// ordered by the pool mutex.
type pooledConn struct {
	net.Conn
	pool *Pool
	key  string

	authed   bool
	reusable bool
}

var _ wire.Session = (*pooledConn)(nil)

func (c *pooledConn) Authenticated() bool { return c.authed }
func (c *pooledConn) MarkAuthenticated()  { c.authed = true }
func (c *pooledConn) MarkReusable()       { c.reusable = true }

// Close parks the connection if the measurement marked it reusable,
// otherwise really closes it (mid-protocol aborts must never be reused).
func (c *pooledConn) Close() error {
	if c.reusable {
		return c.pool.put(c)
	}
	return c.Conn.Close()
}
