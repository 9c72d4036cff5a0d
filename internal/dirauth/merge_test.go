package dirauth

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"testing"
	"time"

	"flashflow/internal/metrics"
)

// testAuth is one test BWAuth: a name and a signing keypair.
type testAuth struct {
	name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func newTestAuths(t *testing.T, names ...string) ([]testAuth, map[string]ed25519.PublicKey) {
	t.Helper()
	auths := make([]testAuth, len(names))
	keys := make(map[string]ed25519.PublicKey, len(names))
	for i, n := range names {
		pub, priv, err := ed25519.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		auths[i] = testAuth{name: n, pub: pub, priv: priv}
		keys[n] = pub
	}
	return auths, keys
}

// view renders a v3bw body with the given relay capacities.
func view(at time.Duration, caps map[string]float64) []byte {
	var es []BandwidthEntry
	for name, c := range caps {
		es = append(es, BandwidthEntry{Name: name, WeightBps: c, CapacityBps: c})
	}
	body, _, err := NewBandwidthFile("test", at, es).Render()
	if err != nil {
		panic(err)
	}
	return body
}

// signedSub builds a signed submission from auth for round covering caps.
func signedSub(auth testAuth, round int, caps map[string]float64) *Submission {
	s := &Submission{
		BWAuth:  auth.name,
		Round:   round,
		Version: SubmissionVersionMax,
		Body:    view(time.Duration(round)*time.Minute, caps),
	}
	s.Sign(auth.priv)
	return s
}

func TestSubmissionEncodeDecodeRoundTrip(t *testing.T) {
	auths, _ := newTestAuths(t, "bw0")
	sub := signedSub(auths[0], 7, map[string]float64{"relay1": 1e6})
	got, err := DecodeSubmission(sub.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.BWAuth != sub.BWAuth || got.Round != sub.Round || got.Version != sub.Version ||
		!bytes.Equal(got.Body, sub.Body) || !bytes.Equal(got.Sig, sub.Sig) {
		t.Fatal("submission did not round-trip")
	}
	if !got.VerifySig(auths[0].pub) {
		t.Fatal("decoded submission's signature must still verify")
	}
	// Truncations at every length must error, never panic or misparse.
	enc := sub.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeSubmission(enc[:cut]); !errors.Is(err, ErrBadSubmissionEncoding) {
			t.Fatalf("cut=%d: err = %v, want ErrBadSubmissionEncoding", cut, err)
		}
	}
	if _, err := DecodeSubmission(append(enc, 0)); !errors.Is(err, ErrBadSubmissionEncoding) {
		t.Fatal("trailing byte must be rejected")
	}
}

// TestSubmitRejections is the table test over every rejection class the
// merge service enforces: unknown BWAuth, unsigned/tampered, version
// skew, duplicate, and regressing rounds, and unparseable bodies.
func TestSubmitRejections(t *testing.T) {
	auths, keys := newTestAuths(t, "bw0", "bw1")
	stranger, _ := newTestAuths(t, "intruder")

	cases := []struct {
		name    string
		sub     func(t *testing.T) *Submission
		wantErr error
		counter string
	}{
		{
			name:    "unknown bwauth",
			sub:     func(t *testing.T) *Submission { return signedSub(stranger[0], 1, map[string]float64{"r": 1e6}) },
			wantErr: ErrUnknownBWAuth,
			counter: "dirauth_submissions_rejected_unknown",
		},
		{
			name: "unsigned",
			sub: func(t *testing.T) *Submission {
				s := signedSub(auths[0], 1, map[string]float64{"r": 1e6})
				s.Sig = nil
				return s
			},
			wantErr: ErrBadSignature,
			counter: "dirauth_submissions_rejected_signature",
		},
		{
			name: "tampered body",
			sub: func(t *testing.T) *Submission {
				s := signedSub(auths[0], 1, map[string]float64{"r": 1e6})
				s.Body = view(time.Minute, map[string]float64{"r": 9e6})
				return s
			},
			wantErr: ErrBadSignature,
			counter: "dirauth_submissions_rejected_signature",
		},
		{
			name: "signed by another registered bwauth",
			sub: func(t *testing.T) *Submission {
				s := &Submission{BWAuth: auths[0].name, Round: 1, Version: SubmissionVersionMax,
					Body: view(time.Minute, map[string]float64{"r": 1e6})}
				s.Sign(auths[1].priv) // bw1's key cannot speak for bw0
				return s
			},
			wantErr: ErrBadSignature,
			counter: "dirauth_submissions_rejected_signature",
		},
		{
			name: "version skew",
			sub: func(t *testing.T) *Submission {
				s := &Submission{BWAuth: auths[0].name, Round: 1, Version: SubmissionVersionMax + 1,
					Body: view(time.Minute, map[string]float64{"r": 1e6})}
				s.Sign(auths[0].priv)
				return s
			},
			wantErr: ErrSubmissionVersion,
			counter: "dirauth_submissions_rejected_version",
		},
		{
			name: "unparseable body",
			sub: func(t *testing.T) *Submission {
				s := &Submission{BWAuth: auths[0].name, Round: 1, Version: SubmissionVersionMax,
					Body: []byte("not a v3bw document")}
				s.Sign(auths[0].priv)
				return s
			},
			wantErr: ErrBadBody,
			counter: "dirauth_submissions_rejected_body",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctr := metrics.NewCounters()
			svc, err := NewMergeService(MergeConfig{Keys: keys, Counters: ctr})
			if err != nil {
				t.Fatal(err)
			}
			_, err = svc.Submit(tc.sub(t))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Submit = %v, want %v", err, tc.wantErr)
			}
			if got := ctr.Get(tc.counter); got != 1 {
				t.Fatalf("%s = %d, want 1", tc.counter, got)
			}
			if got := ctr.Get("dirauth_submissions_accepted"); got != 0 {
				t.Fatalf("accepted = %d, want 0 (rejections change nothing)", got)
			}
			if svc.Merged() != nil {
				t.Fatal("a rejected submission must not produce a merge")
			}
		})
	}
}

func TestSubmitDuplicateAndRegression(t *testing.T) {
	auths, keys := newTestAuths(t, "bw0")
	ctr := metrics.NewCounters()
	svc, err := NewMergeService(MergeConfig{Keys: keys, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(signedSub(auths[0], 5, map[string]float64{"r": 1e6})); err != nil {
		t.Fatal(err)
	}
	// Exact duplicate (a replayed submission) and an older round both
	// fall to the monotonicity rule.
	for _, round := range []int{5, 4} {
		if _, err := svc.Submit(signedSub(auths[0], round, map[string]float64{"r": 2e6})); !errors.Is(err, ErrStaleSubmission) {
			t.Fatalf("round %d after 5: err = %v, want ErrStaleSubmission", round, err)
		}
	}
	if got := ctr.Get("dirauth_submissions_rejected_stale"); got != 2 {
		t.Fatalf("stale rejections = %d, want 2", got)
	}
	// The newer round is accepted and replaces the view.
	if _, err := svc.Submit(signedSub(auths[0], 6, map[string]float64{"r": 2e6})); err != nil {
		t.Fatal(err)
	}
	if m := svc.Merged(); m == nil || m.Round != 6 {
		t.Fatalf("merged round = %v, want 6", m)
	}
}

// TestMedianOfViews pins the Byzantine-tolerance property: one liar
// among three views cannot push a relay's merged capacity outside the
// honest views' range.
func TestMedianOfViews(t *testing.T) {
	auths, keys := newTestAuths(t, "bw0", "bw1", "bw2")
	svc, err := NewMergeService(MergeConfig{Keys: keys, MinViews: 3})
	if err != nil {
		t.Fatal(err)
	}
	honest := map[string]float64{"r1": 10e6, "r2": 20e6}
	honest2 := map[string]float64{"r1": 11e6, "r2": 21e6}
	liar := map[string]float64{"r1": 1000e6, "r2": 0.001e6}

	if _, err := svc.Submit(signedSub(auths[0], 1, honest)); err != nil {
		t.Fatal(err)
	}
	// Below MinViews: accepted but not merged yet.
	if svc.Merged() != nil {
		t.Fatal("merge must wait for MinViews views")
	}
	if _, err := svc.Submit(signedSub(auths[1], 1, honest2)); err != nil {
		t.Fatal(err)
	}
	merged, err := svc.Submit(signedSub(auths[2], 1, liar))
	if err != nil || merged == nil {
		t.Fatalf("third submission should complete the merge: %v", err)
	}
	for relay, lo, hi := "r1", 10e6, 11e6; ; {
		e, _ := merged.File.Lookup(relay)
		got := e.CapacityBps
		if got < lo || got > hi {
			t.Fatalf("%s merged capacity %.0f outside honest range [%.0f, %.0f]", relay, got, lo, hi)
		}
		if relay == "r2" {
			break
		}
		relay, lo, hi = "r2", 20e6, 21e6
	}
	// The liar's wild divergence is flagged at the merge boundary.
	if len(merged.SplitView) != 2 {
		t.Fatalf("split-view relays = %v, want both flagged", merged.SplitView)
	}
}

// TestFreshnessWindow drives the per-BWAuth freshness window with a fake
// clock: a BWAuth that stops submitting ages out of the merge.
func TestFreshnessWindow(t *testing.T) {
	auths, keys := newTestAuths(t, "bw0", "bw1")
	now := time.Unix(1000, 0)
	ctr := metrics.NewCounters()
	svc, err := NewMergeService(MergeConfig{
		Keys:     keys,
		FreshFor: 10 * time.Minute,
		Counters: ctr,
		Now:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(signedSub(auths[0], 1, map[string]float64{"r": 10e6})); err != nil {
		t.Fatal(err)
	}
	now = now.Add(5 * time.Minute)
	if _, err := svc.Submit(signedSub(auths[1], 1, map[string]float64{"r": 30e6})); err != nil {
		t.Fatal(err)
	}
	m := svc.Merged()
	if len(m.Views) != 2 {
		t.Fatalf("views = %v, want both fresh", m.Views)
	}

	// 8 minutes later bw0's view (13 min old) is outside the window;
	// bw1's (8 min) is still in.
	now = now.Add(8 * time.Minute)
	m, err = svc.Remerge()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Views) != 1 || m.Views[0] != "bw1" {
		t.Fatalf("views after aging = %v, want [bw1]", m.Views)
	}
	if e, _ := m.File.Lookup("r"); e.CapacityBps != 30e6 {
		t.Fatalf("merged capacity = %.0f, want bw1's 30e6 alone", e.CapacityBps)
	}
	if ctr.Get("dirauth_merge_stale_views_excluded") == 0 {
		t.Fatal("stale exclusion counter must move")
	}

	// Both age out: the merge fails closed rather than serving stale data.
	now = now.Add(11 * time.Minute)
	if _, err := svc.Remerge(); !errors.Is(err, ErrNoFreshViews) {
		t.Fatalf("all-stale remerge = %v, want ErrNoFreshViews", err)
	}
}

// TestRestoreRecoversFreshness: a restarted merge node re-seeded via
// Restore merges identically and keeps the original receipt clocks.
func TestRestoreRecoversFreshness(t *testing.T) {
	auths, keys := newTestAuths(t, "bw0", "bw1")
	now := time.Unix(5000, 0)
	clk := func() time.Time { return now }

	svc1, err := NewMergeService(MergeConfig{Keys: keys, FreshFor: 10 * time.Minute, Now: clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.Submit(signedSub(auths[0], 3, map[string]float64{"r": 10e6})); err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.Submit(signedSub(auths[1], 3, map[string]float64{"r": 20e6})); err != nil {
		t.Fatal(err)
	}
	want := svc1.Merged()

	// "Restart": rebuild from the persisted views.
	svc2, err := NewMergeService(MergeConfig{Keys: keys, FreshFor: 10 * time.Minute, Now: clk})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range svc1.Views() {
		if err := svc2.Restore(v.BWAuth, v.Round, v.Version, v.Body, v.Received); err != nil {
			t.Fatal(err)
		}
	}
	got, err := svc2.Remerge()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) || got.ETag != want.ETag {
		t.Fatal("restored merge must be byte-identical to the pre-restart merge")
	}
	// The restored receipt times still age out on the original clock.
	now = now.Add(11 * time.Minute)
	if _, err := svc2.Remerge(); !errors.Is(err, ErrNoFreshViews) {
		t.Fatal("restored views must age out from their original receipt times")
	}
	// And the monotonicity guard survives the restart too.
	if _, err := svc2.Submit(signedSub(auths[0], 3, map[string]float64{"r": 10e6})); !errors.Is(err, ErrStaleSubmission) {
		t.Fatal("replay of a restored round must be rejected")
	}
}

// TestMergeMatchesMergeMedianFile pins the distributed/single-process
// equivalence at the unit level: the service's merged file is exactly
// MergeMedianFile over the same views.
func TestMergeMatchesMergeMedianFile(t *testing.T) {
	auths, keys := newTestAuths(t, "bw0", "bw1", "bw2")
	svc, err := NewMergeService(MergeConfig{Keys: keys, MinViews: 3, Producer: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	caps := []map[string]float64{
		{"r1": 10e6, "r2": 5e6},
		{"r1": 12e6, "r2": 6e6},
		{"r1": 11e6, "r3": 9e6},
	}
	var files []*BandwidthFile
	for i, a := range auths {
		sub := signedSub(a, 2, caps[i])
		if _, err := svc.Submit(sub); err != nil {
			t.Fatal(err)
		}
		f, err := ParseV3BW(bytes.NewReader(sub.Body))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	merged := svc.Merged()
	direct := MergeMedianFile("coord", merged.File.At, files)
	directBody, directETag, err := direct.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Body, directBody) || merged.ETag != directETag {
		t.Fatal("service merge must be byte-identical to MergeMedianFile over the same views")
	}
}
