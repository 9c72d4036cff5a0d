package flashflow

import (
	"testing"
	"time"

	"flashflow/internal/core"
	"flashflow/internal/experiments"
	"flashflow/internal/metrics"
	"flashflow/internal/netsim"
	"flashflow/internal/relay"
	"flashflow/internal/stats"
)

// benchExperiment regenerates one paper artifact per iteration and reports
// its headline metrics. Every table and figure in the paper's evaluation
// has a benchmark below; run a single one with
//
//	go test -bench=BenchmarkFig6 -benchmem
//
// and regenerate the full-size output with
//
//	go run ./cmd/experiments -exp fig6
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Lines) == 0 {
			b.Fatal("experiment produced no output")
		}
		if i == b.N-1 {
			for k, v := range rep.Metrics {
				b.ReportMetric(v, k)
			}
		}
	}
}

// §3 analysis (Tor metrics archive).
func BenchmarkFig1RelayCapacityError(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2NetworkCapacityError(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3RelayWeightError(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4NetworkWeightError(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5SpeedTest(b *testing.B)            { benchExperiment(b, "fig5") }
func BenchmarkFig10Variation(b *testing.B)           { benchExperiment(b, "fig10") }

// §6 Internet experiments.
func BenchmarkTable1HostBandwidth(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkTable3PairwiseIperf(b *testing.B)      { benchExperiment(b, "tab3") }
func BenchmarkFig11TorProcessingLimits(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12KernelTuning(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13TuningRatio(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14SocketSweep(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkFig15MultiplierSweep(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16DurationSweep(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig6AccuracyNoBackground(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7BackgroundTraffic(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkTable4Concurrent(b *testing.B)         { benchExperiment(b, "tab4") }

// §7 simulation experiments and §5/Table 2 security numbers.
func BenchmarkSchedNetworkMeasurement(b *testing.B) { benchExperiment(b, "sched") }
func BenchmarkFig8ShadowError(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9ShadowPerformance(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkTable2AttackAdvantage(b *testing.B)   { benchExperiment(b, "tab2") }
func BenchmarkSecurityDetection(b *testing.B)       { benchExperiment(b, "security") }
func BenchmarkAdversaryMatrix(b *testing.B)         { benchExperiment(b, "adversary-matrix") }

// Ablations of the design choices (DESIGN.md §6) and paper extensions.
func BenchmarkAblationRatio(b *testing.B)    { benchExperiment(b, "ablation-ratio") }
func BenchmarkAblationCheck(b *testing.B)    { benchExperiment(b, "ablation-check") }
func BenchmarkAblationSchedule(b *testing.B) { benchExperiment(b, "ablation-schedule") }
func BenchmarkAblationDuration(b *testing.B) { benchExperiment(b, "ablation-duration") }
func BenchmarkAblationDynamic(b *testing.B)  { benchExperiment(b, "ablation-dynamic") }
func BenchmarkAblationFamily(b *testing.B)   { benchExperiment(b, "ablation-family") }

// Micro-benchmarks of the hot paths underlying the experiments.

func BenchmarkAggregate30s4Measurers(b *testing.B) {
	data := core.MeasurementData{
		MeasBytes: make([][]float64, 4),
		NormBytes: make([]float64, 30),
	}
	for i := range data.MeasBytes {
		data.MeasBytes[i] = make([]float64, 30)
		for j := range data.MeasBytes[i] {
			data.MeasBytes[i][j] = float64(i*31 + j)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Aggregate(data, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocateGreedy(b *testing.B) {
	team := []*core.Measurer{
		{Name: "a", CapacityBps: 946e6, Cores: 8},
		{Name: "b", CapacityBps: 941e6, Cores: 12},
		{Name: "c", CapacityBps: 1076e6, Cores: 2},
		{Name: "d", CapacityBps: 1611e6, Cores: 2},
	}
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AllocateGreedy(team, 2e9, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSchedule1000Relays(b *testing.B) {
	relays := make([]core.RelayEstimate, 1000)
	for i := range relays {
		relays[i] = core.RelayEstimate{Name: string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10)), EstimateBps: 50e6}
	}
	caps := []float64{3e9, 3e9, 3e9}
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildSchedule([]byte("seed"), relays, caps, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimAllocate(b *testing.B) {
	n := netsim.New(time.Second)
	resources := make([]*netsim.Resource, 20)
	for i := range resources {
		resources[i] = netsim.NewResource("r", 1e9)
	}
	for i := 0; i < 200; i++ {
		n.AddFlow("f", []*netsim.Resource{resources[i%20], resources[(i+7)%20]}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Allocate()
	}
}

func BenchmarkRelayStep(b *testing.B) {
	r := relay.New(relay.Config{Name: "r", TorCapBps: 500e6, RateBps: 400e6, BurstBits: 400e6})
	r.SetMeasuring(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Step(time.Second, 1e9, 50e6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObservedBandwidthRecord(b *testing.B) {
	o := relay.NewObservedBandwidth()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Record(time.Duration(i)*time.Second, float64(i%1000)*1e3)
	}
}

func BenchmarkArchiveGeneration(b *testing.B) {
	p := metrics.DefaultArchiveParams()
	p.NumRelays = 50
	p.Span = 90 * 24 * time.Hour
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.GenerateArchive(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMedian10k(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 10007)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Median(xs)
	}
}
