package main

// control-100k: the control plane at network scale. 100k relays × 3
// BWAuths measured on an instant backend, so no sockets and no
// wall-clock slots: each round is schedule, allocate, aggregate, prior
// feedback, WAL and checkpoint, and snapshot publish; each round's three
// views are then published through rpc and the merge node, and the
// coordinator is restarted from its store.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"flashflow/internal/coord"
	"flashflow/internal/core"
)

const (
	controlRelays  = 100_000
	controlAuths   = 3
	controlWorkers = 2
	// controlMeasurerBps: with 3 × 10 Gbit/s per BWAuth the population's
	// §4.2 needs fill about 3.5% of a period's slots and every assignment
	// is placed. Sized as the perf scenarios size it (60% occupancy,
	// about 1.7 Gbit/s per measurer), a trial round left 550 relays
	// unscheduled, which fails the run's every-relay gate.
	controlMeasurerBps = 10e9
)

// instantBackend completes a slot at once: the target echoes
// min(capacity, allocation) for every simulated second, scaled by a
// per-second factor in [0.95, 1] drawn from a hash of the BWAuth's salt,
// the relay and the second, so the three BWAuths' views differ and the
// median merge has work to do. It checks ctx between seconds, so the
// §4.2 early abort cancels it exactly as it would a wire slot.
type instantBackend struct {
	caps map[string]float64 // read-only while a round runs
	salt uint64
}

func (b *instantBackend) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	capBps, ok := b.caps[target]
	if !ok {
		return core.MeasurementData{}, fmt.Errorf("instant backend: unknown target %s", target)
	}
	echoBytes := math.Min(capBps, alloc.TotalBps) / 8
	h := fnv.New64a()
	h.Write([]byte(target))
	key := h.Sum64() ^ b.salt
	members := len(alloc.PerMeasurerBps)
	data := core.MeasurementData{MeasBytes: make([][]float64, members)}
	backing := make([]float64, members*seconds)
	for i := range data.MeasBytes {
		data.MeasBytes[i] = backing[i*seconds : i*seconds : (i+1)*seconds]
	}
	row := make([]float64, members)
	for j := range seconds {
		if err := ctx.Err(); err != nil {
			return data, err
		}
		got := echoBytes * (0.95 + 0.05*unit(key+uint64(j)))
		for i, a := range alloc.PerMeasurerBps {
			row[i] = got * a / alloc.TotalBps
			data.MeasBytes[i] = append(data.MeasBytes[i], row[i])
		}
		if sink != nil {
			sink(core.Sample{Second: j, MeasBytes: row})
		}
	}
	return data, nil
}

// unit maps x to [0, 1) through the splitmix64 finalizer.
func unit(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

type controlWorkload struct {
	e      *env
	params core.Params
	caps   map[string]float64
	source coord.StaticRelays
	auths  []*core.BWAuth
	pub    *publisher
	cs     *coordStack
}

func newControlWorkload(e *env) *controlWorkload {
	return &controlWorkload{e: e, params: core.DefaultParams()}
}

// population is the heavy-tailed relay population of the repository's
// control-plane perf scenarios (schedulePopulation in
// internal/perf/scenarios_control.go): capacity 5e11/(r·(1+r/1000)) bit/s
// for rank r, clamped to [100 kbit/s, 998 Mbit/s], with every 50th relay
// marked new. The seed scales each capacity within ±2%, names the relays
// and shuffles their order.
func population(seed int64) (coord.StaticRelays, map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	source := make(coord.StaticRelays, controlRelays)
	caps := make(map[string]float64, controlRelays)
	for i, j := range rng.Perm(controlRelays) {
		rank := float64(j + 1)
		capBps := math.Max(1e5, math.Min(998e6, 5e11/(rank*(1+rank/1000))))
		capBps = math.Round(capBps * (0.98 + 0.04*rng.Float64()))
		name := fmt.Sprintf("relay-%07d-%06x", i, rng.Intn(1<<24))
		source[i] = core.RelayEstimate{Name: name, EstimateBps: capBps, New: j%50 == 49}
		caps[name] = capBps
	}
	return source, caps
}

// setup generates the population and builds three BWAuths, the
// coordinator and the publisher.
func (w *controlWorkload) setup() error {
	w.source, w.caps = population(w.e.seed)
	names := make([]string, controlAuths)
	w.auths = make([]*core.BWAuth, controlAuths)
	for b := range w.auths {
		names[b] = fmt.Sprintf("bw%d", b)
		team := make([]*core.Measurer, 3)
		for i := range team {
			team[i] = &core.Measurer{Name: fmt.Sprintf("bw%d-m%d", b, i), CapacityBps: controlMeasurerBps, Cores: 4}
		}
		backend := &timedBackend{
			inner: &instantBackend{caps: w.caps, salt: uint64(w.e.seed)<<8 ^ uint64(b)*0x9e3779b97f4a7c15},
			log:   w.e.attempts,
		}
		w.auths[b] = core.NewBWAuth(names[b], team, backend, w.params)
	}
	var err error
	if w.pub, err = newPublisher(w.e.secret, names, w.e.pubs); err != nil {
		return err
	}
	w.cs, err = newCoordStack(w.e, filepath.Join(w.e.tmp, "state-control"), coord.Config{
		Params:      w.params,
		Workers:     controlWorkers,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
		Seed:        w.e.seed,
	}, w.auths, w.source)
	return err
}

func (w *controlWorkload) iterate(ctx context.Context) error {
	return w.cs.cycle(ctx, w.pub, w.caps)
}

func (w *controlWorkload) teardown() {
	if w.cs != nil {
		w.cs.close()
		w.cs = nil
	}
	if w.pub != nil {
		w.pub.close()
		w.pub = nil
	}
}
