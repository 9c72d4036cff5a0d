package main

// The slot workloads: real measurement slots over loopback against four
// paced wire.Targets. measure-tcp keeps one coordinator and its
// connection pool across rounds, with priors at true capacity, so each
// relay takes one slot on a warm connection. newrelay-udp builds a fresh
// coordinator, pool and BWAuth each round with priors at capacity/8, so
// every slot pays the cold dial, authentication and UDP bind, and runs
// the §4.2 doubling loop with early abort.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"flashflow/internal/coord"
	"flashflow/internal/core"
	"flashflow/internal/rpc"
	"flashflow/internal/wire"
)

const (
	// slotSeconds is the slot length t: the shortest at which the early
	// abort can fire before the slot ends (⌊t/2⌋+1 < t).
	slotSeconds = 3
	// slotWorkers bounds concurrent slots, so at most two measurer↔target
	// connections stream at once: the data plane fits a 2-CPU host.
	slotWorkers = 2
	// measurerBps sizes each of the two measurers so any one allocation
	// fits on whichever measurer is idle, and each slot uses one measurer
	// and one connection. The §4.2 loop can raise z0 up to the previous
	// attempt's allocation (2.95 × 0.37 ≈ 1.09 Gbit/s for the 1 Gbit/s
	// relay on newrelay-udp), so the largest allocation is about
	// f·1.09·1.02 ≈ 3.3 Gbit/s.
	measurerBps = 4e9
	// slotTimeout bounds one relay's whole doubling loop (at most about
	// 7 s of slots on newrelay-udp), so a wedged slot costs the round a
	// bounded stall and a retry instead of the run.
	slotTimeout = 15 * time.Second
	// slotProcs is the slot workloads' GOMAXPROCS. Measurer and target
	// share the process; with one P per vCPU their goroutines wake each
	// other across the two vCPUs, and measure-tcp's cpu_s_per_gbit fell
	// into two bands (about 0.20 and 0.245) from run to run. With one P
	// its spread halved. The paced data plane, at most about 1.75 Gbit/s,
	// uses about a third of one vCPU, and the program sizes itself for
	// one core (one sender shard, inline target decrypt).
	slotProcs = 1
)

// targetRates are the four targets' nominal paced capacities in bits/s;
// each run scales them by a seeded factor within ±2%.
var targetRates = []float64{0.25e9, 0.5e9, 0.75e9, 1e9}

type slotWorkload struct {
	e      *env
	udp    bool
	params core.Params
	names  []string
	caps   map[string]float64
	ids    []wire.Identity

	targets  []*wire.Target
	lns      []net.Listener
	udpConns []*net.UDPConn
	serveWG  sync.WaitGroup
	addrs    map[string]string
	udpAddrs map[string]string

	pub  *publisher
	pool *coord.Pool
	cs   *coordStack
	n    int // coordinator stacks built, for state directory names
}

func newSlotWorkload(e *env, udp bool) *slotWorkload {
	runtime.GOMAXPROCS(slotProcs)
	p := core.DefaultParams()
	p.SlotSeconds = slotSeconds
	p.Sockets = 8
	p.CheckProb = 1e-3
	w := &slotWorkload{e: e, udp: udp, params: p, caps: make(map[string]float64)}
	rng := rand.New(rand.NewSource(e.seed))
	for i, j := range rng.Perm(len(targetRates)) {
		name := fmt.Sprintf("relay%d-%06x", i, rng.Intn(1<<24))
		w.names = append(w.names, name)
		w.caps[name] = math.Round(targetRates[j] * (0.98 + 0.04*rng.Float64()))
	}
	for i := range 2 {
		w.ids = append(w.ids, rpc.DeriveIdentity(e.secret, fmt.Sprintf("measurer/m%d", i)))
	}
	return w
}

// setup starts the targets and the publisher; measure-tcp also builds
// its long-lived coordinator.
func (w *slotWorkload) setup() error {
	w.addrs, w.udpAddrs = make(map[string]string), make(map[string]string)
	for _, name := range w.names {
		tgt := wire.NewTarget(wire.TargetConfig{RateBps: w.caps[name]})
		for _, id := range w.ids {
			tgt.Authorize(id.Pub)
		}
		w.targets = append(w.targets, tgt)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.lns = append(w.lns, l)
		w.addrs[name] = l.Addr().String()
		w.serveWG.Add(1)
		go func() {
			defer w.serveWG.Done()
			tgt.Serve(l)
		}()
		if w.udp {
			uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return err
			}
			w.udpConns = append(w.udpConns, uc)
			w.udpAddrs[name] = uc.LocalAddr().String()
			w.serveWG.Add(1)
			go func() {
				defer w.serveWG.Done()
				tgt.ServeUDP(wire.NewUDPDatagramConn(uc))
			}()
		}
	}
	var err error
	if w.pub, err = newPublisher(w.e.secret, []string{"bw0"}, w.e.pubs); err != nil {
		return err
	}
	if w.udp {
		return nil
	}
	return w.newCoordinator(func(name string) float64 { return w.caps[name] })
}

// newCoordinator builds a pool, team, BWAuth and coordinator with the
// given priors.
func (w *slotWorkload) newCoordinator(prior func(string) float64) error {
	w.pool = coord.NewPool(4, time.Minute)
	members := make([]wire.Member, len(w.ids))
	team := make([]*core.Measurer, len(w.ids))
	for i, id := range w.ids {
		members[i] = wire.Member{
			Identity: id,
			Dial: func(target string) wire.Dialer {
				addr, pool := w.addrs[target], w.pool
				return pool.Dialer(fmt.Sprintf("%s/m%d", target, i), func() (net.Conn, error) {
					return w.e.dials.dial("tcp", addr)
				})
			},
		}
		if w.udp {
			members[i].DialData = func(target string) wire.Dialer {
				addr := w.udpAddrs[target]
				return func() (net.Conn, error) { return w.e.dials.dial("udp", addr) }
			}
		}
		team[i] = &core.Measurer{Name: fmt.Sprintf("m%d", i), CapacityBps: measurerBps, Cores: 1}
	}
	backend := &timedBackend{
		inner: &wire.Backend{Members: members, CheckProb: w.params.CheckProb, Seed: w.e.seed},
		log:   w.e.attempts,
	}
	auths := []*core.BWAuth{core.NewBWAuth("bw0", team, backend, w.params)}
	source := make(coord.StaticRelays, len(w.names))
	for i, name := range w.names {
		source[i] = core.RelayEstimate{Name: name, EstimateBps: prior(name)}
	}
	w.n++
	cs, err := newCoordStack(w.e, filepath.Join(w.e.tmp, fmt.Sprintf("state-%d", w.n)), coord.Config{
		Params:      w.params,
		Workers:     slotWorkers,
		MaxAttempts: 3,
		RetryBase:   10 * time.Millisecond,
		RetryMax:    50 * time.Millisecond,
		SlotTimeout: slotTimeout,
		Pool:        w.pool,
		Seed:        w.e.seed,
	}, auths, source)
	if err != nil {
		return err
	}
	w.cs = cs
	return nil
}

// iterate runs one cycle: a round, its publication and the restart of
// the coordinator from its store.
func (w *slotWorkload) iterate(ctx context.Context) error {
	if w.udp {
		if err := w.newCoordinator(func(name string) float64 { return w.caps[name] / 8 }); err != nil {
			return err
		}
		defer w.closeCoordinator()
	}
	before := w.pool.Stats()
	err := w.cs.cycle(ctx, w.pub, w.caps)
	after := w.pool.Stats()
	w.e.ph.poolHits += after.Hits - before.Hits
	w.e.ph.poolMisses += after.Misses - before.Misses
	return err
}

func (w *slotWorkload) closeCoordinator() {
	if w.pool != nil {
		w.pool.Close()
	}
	if w.cs != nil {
		w.cs.close()
	}
	w.pool, w.cs = nil, nil
}

// teardown closes the listeners and UDP sockets before the targets:
// Target.Close joins the connection handlers but never closes a socket
// its Serve or ServeUDP loop is blocked on.
func (w *slotWorkload) teardown() {
	w.closeCoordinator()
	if w.pub != nil {
		w.pub.close()
		w.pub = nil
	}
	for _, l := range w.lns {
		l.Close()
	}
	for _, uc := range w.udpConns {
		uc.Close()
	}
	for _, t := range w.targets {
		t.Close()
	}
	w.serveWG.Wait()
	w.targets, w.lns, w.udpConns = nil, nil, nil
}
