package coord

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"flashflow/internal/core"
	"flashflow/internal/store"
)

// assertPointerFree fails unless t holds only fixed-size scalars: no
// pointer, string, slice, map, channel, function or interface anywhere
// inside it, so a slice of t is memory the garbage collector never scans.
func assertPointerFree(t *testing.T, typ reflect.Type, path string) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
	case reflect.Array:
		assertPointerFree(t, typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			assertPointerFree(t, f.Type, path+"."+f.Name)
		}
	default:
		t.Errorf("%s is a %s: round state must hold no pointers", path, typ.Kind())
	}
}

// TestRoundStateHoldsNoPointers pins the round's two round-sized
// arenas as pointer-free: the job arena's slotJob and the collector's
// dense estimate cells.
func TestRoundStateHoldsNoPointers(t *testing.T) {
	assertPointerFree(t, reflect.TypeOf(slotJob{}), "slotJob")
	if size := reflect.TypeOf(slotJob{}).Size(); size > 32 {
		t.Errorf("slotJob is %d bytes, want at most 32", size)
	}
	est, ok := reflect.TypeOf(roundCollector{}).FieldByName("est")
	if !ok || est.Type.Kind() != reflect.Slice {
		t.Fatal("roundCollector has no est slice")
	}
	assertPointerFree(t, est.Type.Elem(), "roundCollector.est[]")
}

// instantBackend completes every slot at once, echoing
// min(capacity, allocation) each second: a relay measured from its
// true capacity concludes in one attempt and allocates nothing the
// coordinator keeps.
type instantBackend struct{ caps map[string]float64 }

func (b instantBackend) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	capBps, ok := b.caps[target]
	if !ok {
		return core.MeasurementData{}, fmt.Errorf("instant: unknown target %s", target)
	}
	series := make([]float64, seconds)
	for j := range series {
		series[j] = math.Min(capBps, alloc.TotalBps) / 8
		if sink != nil {
			sink(core.Sample{Second: j, MeasBytes: series[j : j+1]})
		}
	}
	return core.MeasurementData{MeasBytes: [][]float64{series}}, nil
}

// retainedBytesPerRelayBound caps what a coordinator and its BWAuths
// keep live per relay between rounds (3 BWAuths, a MemStore): the
// BWAuths' estimates and sorted names, the coordinator's priors, the
// schedule builder's relay index and slot arrays, the population
// buffer, the last round's report and the store's checkpoint. Measured
// at 636 B per relay (Go 1.24, linux/amd64; 1,646 B before the round's
// job arena, collector, WAL batch and the BWAuths' duplicate priors
// stopped outliving the round) and set with 1.5× headroom.
const retainedBytesPerRelayBound = 960

// TestRetainedHeapPerRelay runs three rounds of 20k relays × 3 BWAuths
// on an instant backend and bounds the heap the coordinator, its
// BWAuths and its store retain afterwards, per relay.
func TestRetainedHeapPerRelay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 180k slot attempts")
	}
	const relays, auths = 20_000, 3
	p := core.DefaultParams()
	source := make(StaticRelays, relays)
	caps := make(map[string]float64, relays)
	for i := range source {
		name := fmt.Sprintf("relay-%06d", i)
		capBps := float64(1+i%20) * 1e6
		source[i] = core.RelayEstimate{Name: name, EstimateBps: capBps}
		caps[name] = capBps
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	bws := make([]*core.BWAuth, auths)
	for b := range bws {
		team := []*core.Measurer{
			{Name: fmt.Sprintf("bw%d-m0", b), CapacityBps: 10e9, Cores: 4},
			{Name: fmt.Sprintf("bw%d-m1", b), CapacityBps: 10e9, Cores: 4},
			{Name: fmt.Sprintf("bw%d-m2", b), CapacityBps: 10e9, Cores: 4},
		}
		bws[b] = core.NewBWAuth(fmt.Sprintf("bw%d", b), team, instantBackend{caps}, p)
	}
	var last RoundReport
	c, err := New(Config{
		Params:    p,
		Workers:   2,
		MaxRounds: 3,
		Store:     store.NewMem(),
		OnRound:   func(r RoundReport) { last = r },
	}, bws, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if last.Conclusive != relays*auths || len(last.Estimates) != relays {
		t.Fatalf("round %d: %d/%d conclusive, %d estimates", last.Round, last.Conclusive, relays*auths, len(last.Estimates))
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	runtime.KeepAlive(bws)
	runtime.KeepAlive(source)
	runtime.KeepAlive(caps)
	perRelay := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / relays
	t.Logf("retained %d B per relay (bound %d)", perRelay, retainedBytesPerRelayBound)
	if perRelay > retainedBytesPerRelayBound {
		t.Fatalf("coordinator retains %d B per relay between rounds, bound %d", perRelay, retainedBytesPerRelayBound)
	}
}
