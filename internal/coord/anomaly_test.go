package coord

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"flashflow/internal/adversary"
	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/metrics"
	"flashflow/internal/relay"
)

// churnSource serves a different population each round, driven by a
// per-round membership function.
type churnSource struct {
	mu      sync.Mutex
	round   int
	members func(round int) []core.RelayEstimate
}

func (s *churnSource) AppendRelays(buf []core.RelayEstimate) []core.RelayEstimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round++
	return append(buf, s.members(s.round)...)
}

func liarBackend(t *testing.T, seed int64) *adversary.Backend {
	t.Helper()
	inner := core.NewSimBackend([]core.PathModel{
		{RTT: 40 * time.Millisecond, LinkBps: 1e9},
		{RTT: 90 * time.Millisecond, LinkBps: 1e9},
	}, seed)
	inner.AddTarget("liar", &core.SimTarget{
		Relay:    relay.New(relay.Config{Name: "liar", TorCapBps: 50e6}),
		LinkBps:  1e9,
		Behavior: core.BehaviorHonest,
	})
	inner.AddTarget("honest", &core.SimTarget{
		Relay:    relay.New(relay.Config{Name: "honest", TorCapBps: 50e6}),
		LinkBps:  1e9,
		Behavior: core.BehaviorHonest,
	})
	b := adversary.New(inner, "bw0", seed)
	b.SetAttack("liar", adversary.Inflate{Factor: 40})
	return b
}

func anomalyTeam() []*core.Measurer {
	return []*core.Measurer{
		{Name: "m1", CapacityBps: 1e9, Cores: 4},
		{Name: "m2", CapacityBps: 1e9, Cores: 4},
	}
}

func runChurnRounds(t *testing.T, members func(round int) []core.RelayEstimate, rounds int) *Coordinator {
	t.Helper()
	p := core.DefaultParams()
	p.SlotSeconds = 4
	auth := core.NewBWAuth("bw0", anomalyTeam(), liarBackend(t, 1), p)
	c, err := New(Config{
		Params:      p,
		Workers:     2,
		MaxAttempts: 1,
		MaxRounds:   rounds,
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
	}, []*core.BWAuth{auth}, &churnSource{members: members})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAnomalyRetainedAcrossChurn is the flapping-liar regression test:
// the relay lies in round 1, departs for rounds 2–3, and rejoins in
// round 4 — its anomaly record must survive the absence and keep
// accumulating, not restart from zero.
func TestAnomalyRetainedAcrossChurn(t *testing.T) {
	liar := core.RelayEstimate{Name: "liar", EstimateBps: 50e6}
	honest := core.RelayEstimate{Name: "honest", EstimateBps: 50e6}
	members := func(round int) []core.RelayEstimate {
		if round == 2 || round == 3 {
			return []core.RelayEstimate{honest} // liar flaps out
		}
		return []core.RelayEstimate{honest, liar}
	}

	c := runChurnRounds(t, members, 1)
	after1, ok := c.Anomalies("liar")
	if !ok || after1.ClampedSeconds == 0 {
		t.Fatalf("liar not flagged after round 1: %+v ok=%v", after1, ok)
	}

	c = runChurnRounds(t, members, 4)
	after4, ok := c.Anomalies("liar")
	if !ok {
		t.Fatal("liar's anomaly record was dropped across churn")
	}
	if after4.ClampedSeconds <= after1.ClampedSeconds {
		t.Fatalf("rejoining liar's record did not accumulate: round1=%d, round4=%d",
			after1.ClampedSeconds, after4.ClampedSeconds)
	}
	if st := c.Status(); st.Anomalies["liar"].ClampedSeconds != after4.ClampedSeconds {
		t.Fatalf("Status().Anomalies disagrees with Anomalies(): %+v", st.Anomalies["liar"])
	}
	if got := c.cfg.Counters.Get("coord_anomaly_clamped_seconds"); got == 0 {
		t.Fatal("coord_anomaly_clamped_seconds counter not incremented")
	}
}

// TestAnomalyForgottenPastWindow: a relay gone longer than the retention
// window is forgotten — the table must not grow forever.
func TestAnomalyForgottenPastWindow(t *testing.T) {
	liar := core.RelayEstimate{Name: "liar", EstimateBps: 50e6}
	honest := core.RelayEstimate{Name: "honest", EstimateBps: 50e6}
	members := func(round int) []core.RelayEstimate {
		if round == 1 {
			return []core.RelayEstimate{honest, liar}
		}
		return []core.RelayEstimate{honest}
	}
	c := runChurnRounds(t, members, 2+anomalyRetainRounds) // gone one round longer than the window
	if _, ok := c.Anomalies("liar"); ok {
		t.Fatal("departed relay's anomaly record outlived the retention window")
	}
}

// TestSplitViewDetected: a relay lying to one of three BWAuths shows the
// teams divergent capacities; the median vote absorbs the lie and the
// split-view counter records the disagreement.
func TestSplitViewDetected(t *testing.T) {
	p := core.DefaultParams()
	p.SlotSeconds = 4
	const capBps = 50e6
	auths := make([]*core.BWAuth, 3)
	for i := range auths {
		name := fmt.Sprintf("bw%d", i)
		inner := core.NewSimBackend([]core.PathModel{
			{RTT: 40 * time.Millisecond, LinkBps: 1e9},
			{RTT: 90 * time.Millisecond, LinkBps: 1e9},
		}, int64(i+1))
		inner.AddTarget("split", &core.SimTarget{
			Relay:    relay.New(relay.Config{Name: "split", TorCapBps: capBps}),
			LinkBps:  1e9,
			Behavior: core.BehaviorHonest,
		})
		b := adversary.New(inner, name, int64(i+1))
		b.SetAttack("split", adversary.SelectiveLie{
			LieTo: map[string]bool{"bw0": true},
			Sub:   adversary.EchoCheat{Boost: 3, CheckProb: 0},
		})
		auths[i] = core.NewBWAuth(name, anomalyTeam(), b, p)
	}
	c, err := New(Config{
		Params:      p,
		Workers:     3,
		MaxAttempts: 1,
		MaxRounds:   1,
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
	}, auths, StaticRelays{{Name: "split", EstimateBps: capBps}})
	if err != nil {
		t.Fatal(err)
	}
	var rep RoundReport
	c.cfg.OnRound = func(r RoundReport) { rep = r }
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	a, ok := c.Anomalies("split")
	if !ok || a.SplitViewRounds == 0 {
		t.Fatalf("split-view lying not flagged: %+v ok=%v", a, ok)
	}
	// The median across the three teams absorbs the one lied-to view.
	if est := rep.Estimates["split"]; est > 1.35*capBps {
		t.Fatalf("median estimate %.2fx truth — the lie leaked through", est/capBps)
	}
}

// TestSplitViewSameVerdictAtBothSites feeds the same per-BWAuth
// capacities to a 3-BWAuth coordinator round and to a merge node over
// that round's signed views: a relay whose max/min is exactly
// SplitViewFactor is flagged by neither, one just above it by both.
func TestSplitViewSameVerdictAtBothSites(t *testing.T) {
	perAuth := []map[string]float64{
		{"even": 10e6, "over": 10e6},
		{"even": 12e6, "over": 12e6},
		{"even": 15e6, "over": 15.000001e6},
	}
	p := testParams()
	auths := make([]*core.BWAuth, len(perAuth))
	keys := make(map[string]ed25519.PublicKey, len(perAuth))
	privs := make([]ed25519.PrivateKey, len(perAuth))
	for i, caps := range perAuth {
		auths[i] = testAuth(fmt.Sprintf("bw%d", i), newFakeBackend(caps), p)
		pub, priv, err := ed25519.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[auths[i].Name], privs[i] = pub, priv
	}
	c, err := New(Config{Params: p, Workers: 3, MaxAttempts: 1, MaxRounds: 1, RetryBase: time.Millisecond},
		auths, StaticRelays{{Name: "even", EstimateBps: 12e6}, {Name: "over", EstimateBps: 12e6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, caps := range perAuth {
		for name, capBps := range caps {
			if est, _ := auths[i].Estimate(name); est != capBps {
				t.Fatalf("%s %s: estimate %g, want the capacity %g", auths[i].Name, name, est, capBps)
			}
		}
	}

	ctr := metrics.NewCounters()
	svc, err := dirauth.NewMergeService(dirauth.MergeConfig{Keys: keys, MinViews: len(auths), Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	var merged *dirauth.Merged
	for i, a := range auths {
		body, _, err := a.BandwidthFile(0).Render()
		if err != nil {
			t.Fatal(err)
		}
		sub := &dirauth.Submission{BWAuth: a.Name, Round: 1, Version: dirauth.SubmissionVersionMax, Body: body}
		sub.Sign(privs[i])
		if merged, err = svc.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	if merged == nil || !slices.Equal(merged.SplitView, []string{"over"}) {
		t.Fatalf("merge node flagged %v, want [over]", merged)
	}
	if _, ok := c.Anomalies("even"); ok {
		t.Error("coordinator flagged the relay at exactly SplitViewFactor")
	}
	if a, _ := c.Anomalies("over"); a.SplitViewRounds != 1 {
		t.Errorf("coordinator recorded %d split-view rounds for the relay above SplitViewFactor, want 1", a.SplitViewRounds)
	}
	coordN, mergeN := c.cfg.Counters.Get("coord_anomaly_split_view_rounds"), ctr.Get("dirauth_split_view_relays")
	if coordN != 1 || mergeN != coordN {
		t.Errorf("coord_anomaly_split_view_rounds %d, dirauth_split_view_relays %d, want both 1", coordN, mergeN)
	}
}
