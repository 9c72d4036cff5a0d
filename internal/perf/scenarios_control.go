package perf

import (
	"bytes"
	"fmt"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/dirauth"
)

// Control-plane scenarios: where the data-plane scenarios measure cells
// moved per second, these measure how fast the §4.3 scheduler and the
// v3bw snapshot pipeline handle consensus-scale relay populations. The
// "cells" of their Results are control-plane units — schedule placements
// or bandwidth-file entries — so the same Report/Compare machinery (and
// the CI regression gate) covers them.

// minSpeedup1M is the acceptance bar for the million-relay schedule
// build: the indexed builder must beat the seed reference algorithm by
// at least this factor or the scenario fails outright.
const minSpeedup1M = 10.0

// controlResult assembles a Result whose unit is a control-plane item
// rather than a wire cell; MBPerSec is filled by callers that move real
// bytes.
func controlResult(items int64, elapsed time.Duration, before, after memSnapshot) Result {
	sec := elapsed.Seconds()
	r := Result{Cells: items, Seconds: sec}
	if sec > 0 {
		r.CellsPerSec = float64(items) / sec
	}
	if items > 0 {
		r.AllocsPerOp = float64(after.mallocs-before.mallocs) / float64(items)
		r.BytesPerCell = float64(after.bytes-before.bytes) / float64(items)
	}
	return r
}

// schedulePopulation builds a deterministic heavy-tailed population of n
// relays (Pareto-ish via rank, 998 Mbit/s cap, ~2% marked New) and team
// capacities for three BWAuths sized so the period runs at roughly 60%
// occupancy — feasibility binds without making the schedule degenerate.
func schedulePopulation(n int) ([]core.RelayEstimate, []float64, core.Params) {
	p := core.DefaultParams()
	relays := make([]core.RelayEstimate, n)
	var totalNeed float64
	for i := range relays {
		rank := float64(i%131071 + 1) // recycle the tail so totals scale ~linearly with n
		capBps := 5e11 / (rank * (1 + rank/1000))
		if capBps > 998e6 {
			capBps = 998e6
		}
		if capBps < 1e5 {
			capBps = 1e5
		}
		// Spread estimates so needs are near-distinct: sorted placement
		// order then depends on float compares, not name tie-breaks.
		capBps *= 1 + float64(i)*1e-9
		relays[i] = core.RelayEstimate{
			Name:        fmt.Sprintf("relay-%07d", i),
			EstimateBps: capBps,
			New:         i%50 == 49,
		}
		totalNeed += core.RequiredBps(capBps, p)
	}
	perSlot := totalNeed / float64(p.SlotsPerPeriod()) / 0.60
	caps := []float64{perSlot, perSlot, perSlot}
	return relays, caps, p
}

// runScheduleBuild measures steady-state indexed schedule construction
// over an n-relay population (one warmup build charges the arena
// allocation, then the reused-builder path the coordinator actually runs
// each round), and anchors it against the seed O(R·S) reference builder
// run on the first refN relays and extrapolated linearly — the
// reference's per-relay cost is Θ(S), independent of R, so the
// extrapolation is sound and spares CI minutes of deliberately slow
// baseline. minSpeedup > 0 fails the scenario when the measured speedup
// drops below it.
func runScheduleBuild(opts Options, n, refN int, minSpeedup float64) (Result, error) {
	relays, caps, p := schedulePopulation(n)
	builder := core.NewScheduleBuilder()

	warm, err := builder.Build([]byte("sched-warmup"), relays, caps, p)
	if err != nil {
		return Result{}, err
	}
	perBuildAssignments := int64(warm.Assignments())
	if perBuildAssignments == 0 {
		return Result{}, fmt.Errorf("perf: schedule build placed nothing")
	}
	unscheduled := len(warm.Unscheduled)

	window := opts.window()
	before := readMem()
	start := time.Now()
	var (
		items      int64
		iterations int64
	)
	for {
		iterations++
		s, err := builder.Build([]byte(fmt.Sprintf("sched-round-%d", iterations)), relays, caps, p)
		if err != nil {
			return Result{}, err
		}
		items += int64(s.Assignments())
		if time.Since(start) >= window {
			break
		}
	}
	elapsed := time.Since(start)
	after := readMem()
	perBuild := elapsed.Seconds() / float64(iterations)

	refStart := time.Now()
	refSched, err := core.BuildScheduleReference([]byte("sched-round-1"), relays[:refN], caps, p)
	if err != nil {
		return Result{}, err
	}
	refElapsed := time.Since(refStart).Seconds()
	if refSched.Assignments() == 0 {
		return Result{}, fmt.Errorf("perf: reference build placed nothing")
	}
	refExtrapolated := refElapsed * float64(n) / float64(refN)
	speedup := refExtrapolated / perBuild
	if minSpeedup > 0 && speedup < minSpeedup {
		return Result{}, fmt.Errorf("perf: indexed schedule build only %.1fx the reference (need >= %.0fx): %.3fs/build vs %.1fs extrapolated from %d relays",
			speedup, minSpeedup, perBuild, refExtrapolated, refN)
	}

	res := controlResult(items, elapsed, before, after)
	res.Extra = map[string]float64{
		"relays":               float64(n),
		"bwauths":              float64(len(caps)),
		"iterations":           float64(iterations),
		"build_seconds":        perBuild,
		"unscheduled":          float64(unscheduled),
		"reference_relays":     float64(refN),
		"reference_seconds":    refElapsed,
		"speedup_vs_reference": speedup,
	}
	return res, nil
}

func runScheduleBuild100k(opts Options) (Result, error) {
	refN := 50000
	if opts.Quick {
		refN = 10000
	}
	return runScheduleBuild(opts, 100000, refN, 0)
}

func runScheduleBuild1M(opts Options) (Result, error) {
	refN := 20000
	if opts.Quick {
		refN = 10000
	}
	return runScheduleBuild(opts, 1000000, refN, minSpeedup1M)
}

// runV3BWRoundtrip streams a million-entry bandwidth file through
// WriteTo and parses it back, the full snapshot round-trip
// coord.writeSnapshot and a directory authority perform each period.
// The file lives in one reused buffer; the scenario's unit is one relay
// entry surviving the round-trip.
func runV3BWRoundtrip(opts Options) (Result, error) {
	const n = 1000000
	entries := make([]dirauth.BandwidthEntry, n)
	for i := range entries {
		capBps := 1e6 * (1 + float64(i%4096)) * (1 + float64(i)*1e-8)
		entries[i] = dirauth.BandwidthEntry{Name: fmt.Sprintf("relay-%07d", i), WeightBps: capBps, CapacityBps: capBps}
	}
	f := dirauth.NewBandwidthFile("perf", time.Hour, entries)
	var buf bytes.Buffer

	roundtrip := func() (int, error) {
		buf.Reset()
		if _, err := f.WriteTo(&buf); err != nil {
			return 0, err
		}
		size := buf.Len()
		parsed, err := dirauth.ParseV3BW(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return 0, err
		}
		if len(parsed.Entries) != n {
			return 0, fmt.Errorf("perf: v3bw roundtrip lost entries: %d of %d", len(parsed.Entries), n)
		}
		return size, nil
	}
	// Warmup grows the buffer.
	if _, err := roundtrip(); err != nil {
		return Result{}, err
	}

	window := opts.window()
	before := readMem()
	start := time.Now()
	var (
		items      int64
		totalBytes int64
		iterations int64
	)
	for {
		iterations++
		size, err := roundtrip()
		if err != nil {
			return Result{}, err
		}
		items += n
		totalBytes += int64(size)
		if time.Since(start) >= window {
			break
		}
	}
	elapsed := time.Since(start)
	after := readMem()

	res := controlResult(items, elapsed, before, after)
	if sec := elapsed.Seconds(); sec > 0 {
		res.MBPerSec = float64(totalBytes) / 1e6 / sec
	}
	res.Extra = map[string]float64{
		"entries":    float64(n),
		"file_bytes": float64(totalBytes) / float64(iterations),
		"iterations": float64(iterations),
	}
	return res, nil
}
