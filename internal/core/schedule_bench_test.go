package core

import (
	"fmt"
	"testing"
	"time"
)

// minSpeedup1M is the floor for the million-relay schedule build: the
// indexed builder must beat the reference algorithm by at least this
// factor or BenchmarkScheduleBuild/1m fails.
const minSpeedup1M = 10.0

// schedulePopulation builds a deterministic heavy-tailed population of n
// relays (Pareto-ish via rank, 998 Mbit/s cap, ~2% marked New) and team
// capacities for three BWAuths sized so the period runs at roughly 60%
// occupancy — feasibility binds without making the schedule degenerate.
func schedulePopulation(n int) ([]RelayEstimate, []float64, Params) {
	p := DefaultParams()
	relays := make([]RelayEstimate, n)
	var totalNeed float64
	for i := range relays {
		rank := float64(i%131071 + 1) // recycle the tail so totals scale ~linearly with n
		capBps := min(max(5e11/(rank*(1+rank/1000)), 1e5), 998e6)
		// Spread estimates so needs are near-distinct: sorted placement
		// order then depends on float compares, not name tie-breaks.
		capBps *= 1 + float64(i)*1e-9
		relays[i] = RelayEstimate{
			Name:        fmt.Sprintf("relay-%07d", i),
			EstimateBps: capBps,
			New:         i%50 == 49,
		}
		totalNeed += RequiredBps(capBps, p)
	}
	perSlot := totalNeed / float64(p.SlotsPerPeriod()) / 0.60
	return relays, []float64{perSlot, perSlot, perSlot}, p
}

// BenchmarkScheduleBuild times the reused-builder path the coordinator
// runs each round (§4.3, three BWAuths) at 100k and 1M relays, in
// relays/s. Every build is followed by a reference build over the first
// refRelays relays, extrapolated linearly to the full population — the
// reference's per-relay cost is Θ(S), independent of R, so the
// extrapolation is sound and spares minutes of deliberately slow
// baseline. The ratio is reported as x_reference; at 1M relays it must
// reach minSpeedup1M.
func BenchmarkScheduleBuild(b *testing.B) {
	const refRelays = 10000
	for _, bc := range []struct {
		name       string
		relays     int
		minSpeedup float64
	}{
		{"100k", 100000, 0},
		{"1m", 1000000, minSpeedup1M},
	} {
		b.Run(bc.name, func(b *testing.B) {
			relays, caps, p := schedulePopulation(bc.relays)
			builder := NewScheduleBuilder()
			// One warmup build charges the builder's arena allocation.
			if _, err := builder.Build([]byte("sched-warmup"), relays, caps, p); err != nil {
				b.Fatal(err)
			}
			var built, ref time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := []byte(fmt.Sprintf("sched-round-%d", i))
				t0 := time.Now()
				s, err := builder.Build(seed, relays, caps, p)
				built += time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				if s.Assignments() == 0 {
					b.Fatal("indexed build placed nothing")
				}

				b.StopTimer()
				t1 := time.Now()
				rs, err := BuildScheduleReference(seed, relays[:refRelays], caps, p)
				ref += time.Since(t1)
				if err != nil {
					b.Fatal(err)
				}
				if rs.Assignments() == 0 {
					b.Fatal("reference build placed nothing")
				}
				b.StartTimer()
			}
			b.StopTimer()
			speedup := ref.Seconds() * float64(bc.relays) / refRelays / built.Seconds()
			b.ReportMetric(float64(b.N*bc.relays)/built.Seconds(), "relays/s")
			b.ReportMetric(speedup, "x_reference")
			if bc.minSpeedup > 0 && speedup < bc.minSpeedup {
				b.Fatalf("indexed schedule build only %.1fx the reference (need >= %.0fx): %.3fs/build vs %.1fs extrapolated from %d relays",
					speedup, bc.minSpeedup, built.Seconds()/float64(b.N), ref.Seconds()*float64(bc.relays)/refRelays/float64(b.N), refRelays)
			}
		})
	}
}
