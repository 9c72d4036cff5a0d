package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flashflow/internal/coord"
	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/obs"
	"flashflow/internal/rpc"
	"flashflow/internal/store"
)

func quiet() *logger { return &logger{w: io.Discard} }

func mustParse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return o
}

func render(t *testing.T, f *dirauth.BandwidthFile) []byte {
	t.Helper()
	body, _, err := f.Render()
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return body
}

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // substring; empty = valid
	}{
		{nil, ""},
		{[]string{"-name", "bw1", "-dirauth-addr", "127.0.0.1:8580", "-auth-secret", "s"}, ""},
		{[]string{"-dirauth", "-auth-secret", "s", "-bwauths", " a , b "}, ""},
		{[]string{"-measurers", "-1"}, "-measurers must be positive"},
		{[]string{"-measurers", "0"}, "-measurers must be positive"},
		{[]string{"-rate", "-5"}, "-rate must be"},
		{[]string{"-rate", "0"}, "-rate must be"},
		{[]string{"-rate", "NaN"}, "-rate must be"},
		{[]string{"-rate", "+Inf"}, "-rate must be"},
		{[]string{"-slot", "0"}, "-slot must be positive"},
		{[]string{"-relays", "0"}, "-relays must be positive"},
		{[]string{"-log-format", "xml"}, "-log-format must be"},
		{[]string{"-name", ""}, "-name must not be empty"},
		{[]string{"-dirauth-addr", "127.0.0.1:8580"}, "-dirauth-addr needs -auth-secret"},
		{[]string{"-dirauth"}, "-dirauth needs -auth-secret"},
		{[]string{"-dirauth", "-dirauth-addr", "127.0.0.1:8580", "-auth-secret", "s"}, "different roles"},
		{[]string{"-dirauth", "-auth-secret", "s", "-bwauths", "bw0,,bw2"}, "empty BWAuth name"},
		{[]string{"-sim", "extra"}, "unexpected arguments"},
	} {
		_, err := parseFlags(tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("parseFlags(%q): %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("parseFlags(%q) = %v, want error containing %q", tc.args, err, tc.wantErr)
		}
	}
	if o := mustParse(t, "-dirauth", "-auth-secret", "s", "-bwauths", " a , b "); !reflect.DeepEqual(o.bwauths, []string{"a", "b"}) {
		t.Errorf("-bwauths parsed to %q, want [a b]", o.bwauths)
	}
}

// TestSimBackendChecksAtBWAuthProb: the -sim role's backend draws echo
// checks at the BWAuth's own CheckProb, not at NewSimBackend's default.
func TestSimBackendChecksAtBWAuthProb(t *testing.T) {
	a, _, _, cleanup, err := population(quiet(), mustParse(t, "-sim"))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	backend, ok := a.Backend.(*core.SimBackend)
	if !ok {
		t.Fatalf("sim role backend is %T", a.Backend)
	}
	if backend.CheckProb != a.Params.CheckProb {
		t.Fatalf("backend CheckProb %g, BWAuth CheckProb %g", backend.CheckProb, a.Params.CheckProb)
	}
}

// TestSimRunsAreByteIdentical runs the -sim measuring role twice: the
// noise-free simulation must write the same v3bw files byte for byte and
// measure every relay at exactly its configured capacity.
func TestSimRunsAreByteIdentical(t *testing.T) {
	var runs [2]map[string][]byte
	var o options
	for i := range runs {
		dir := t.TempDir()
		o = mustParse(t, "-sim", "-rounds", "2", "-interval", "0", "-snapshot-dir", dir)
		if err := run(context.Background(), quiet(), o); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = make(map[string][]byte)
		for _, f := range files {
			if runs[i][f.Name()], err = os.ReadFile(filepath.Join(dir, f.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(runs[0]) != 2 || len(runs[1]) != 2 {
		t.Fatalf("want 2 snapshots per run, got %d and %d", len(runs[0]), len(runs[1]))
	}
	for name, body := range runs[0] {
		if !bytes.Equal(body, runs[1][name]) {
			t.Errorf("%s differs between runs:\n--- first\n%s--- second\n%s", name, body, runs[1][name])
		}
	}
	f, err := dirauth.ParseV3BW(bytes.NewReader(runs[0]["v3bw-round-00002.txt"]))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != o.relays {
		t.Fatalf("%d entries, want %d", len(f.Entries), o.relays)
	}
	_, source, _, _, _ := population(quiet(), o)
	for i, e := range f.Entries {
		if e.Name != source[i].Name || e.CapacityBps != source[i].EstimateBps {
			t.Errorf("entry %d: %s at %v bit/s, want %s at %v", i, e.Name, e.CapacityBps, source[i].Name, source[i].EstimateBps)
		}
	}
}

// startMergeNode opens a merge node the way run does; the test's cleanup
// closes it if the test has not.
func startMergeNode(t *testing.T, o options) (*daemon, *mergeNode) {
	t.Helper()
	d, err := openDaemon(quiet(), o)
	if err != nil {
		t.Fatal(err)
	}
	n, err := newMergeNode(d)
	if err != nil {
		d.close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.rpc.Close()
		d.close()
	})
	return d, n
}

// signedView is bwauth's signed round-1 submission, with every capacity
// scaled by scale so the views differ.
func signedView(t *testing.T, o options, bwauth string, scale float64) []byte {
	t.Helper()
	entries := make([]dirauth.BandwidthEntry, o.relays)
	for i := range entries {
		c := o.baseMbit * 1e6 * scale * float64(i+1)
		entries[i] = dirauth.BandwidthEntry{Name: fmt.Sprintf("relay%02d", i), WeightBps: c, CapacityBps: c}
	}
	sub := &dirauth.Submission{
		BWAuth:  bwauth,
		Round:   1,
		Version: dirauth.SubmissionVersionMax,
		Body:    render(t, dirauth.NewBandwidthFile("coord", time.Hour, entries)),
	}
	sub.Sign(rpc.DeriveIdentity(o.authSecret, bwauth).Priv)
	return sub.Encode()
}

// mergeState is what the merge node serves: its /dirauth state (without
// the wall-clock stamp) and its /v3bw body.
func mergeState(t *testing.T, d *daemon, n *mergeNode) (status, body []byte) {
	t.Helper()
	status, err := json.Marshal(n.svc.Status())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	obs.NewServer(obs.Config{Snapshot: d.snapshot, Merge: n.svc}).Handler().
		ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v3bw", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v3bw: %d %s", rec.Code, rec.Body)
	}
	return status, rec.Body.Bytes()
}

// TestMergeNodeRestartRestoresState accepts three views, shuts the merge
// node down (cleanly or by crashing after the WAL appends), reopens the
// state directory, and requires the restarted node to serve the same
// /dirauth state and merged /v3bw before any BWAuth resubmits.
func TestMergeNodeRestartRestoresState(t *testing.T) {
	for _, tc := range []struct {
		name         string
		ckptEvery    string
		clean        bool // shut down through close's final checkpoint
		wantSnapshot bool // a checkpoint must exist before the restart
	}{
		{"clean shutdown", "100", true, true},
		{"crash, WAL only", "100", false, false},
		{"crash after periodic checkpoint", "1", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			o := mustParse(t, "-dirauth", "-auth-secret", "s", "-rpc-addr", "127.0.0.1:0",
				"-state-dir", dir, "-checkpoint-every", tc.ckptEvery)
			d, n := startMergeNode(t, o)
			for i, name := range o.bwauths {
				if _, err := n.handle(nil, rpc.MethodSubmitV3BW, signedView(t, o, name, 1+0.1*float64(i))); err != nil {
					t.Fatalf("submit %s: %v", name, err)
				}
			}
			status, body := mergeState(t, d, n)
			if tc.clean {
				n.close()
			} else {
				n.rpc.Close()
			}
			d.close()
			if _, err := os.Stat(filepath.Join(dir, store.SnapshotFile)); (err == nil) != tc.wantSnapshot {
				t.Fatalf("snapshot file present = %v, want %v", err == nil, tc.wantSnapshot)
			}

			d2, n2 := startMergeNode(t, o)
			status2, body2 := mergeState(t, d2, n2)
			if !bytes.Equal(status, status2) {
				t.Errorf("/dirauth state after restart:\n%s\nbefore:\n%s", status2, status)
			}
			if !bytes.Equal(body, body2) {
				t.Errorf("merged /v3bw after restart:\n%s\nbefore:\n%s", body2, body)
			}
			// A replay that was stale before the restart is still stale.
			if _, err := n2.handle(nil, rpc.MethodSubmitV3BW, signedView(t, o, "bw0", 1)); !errors.Is(err, dirauth.ErrStaleSubmission) {
				t.Errorf("replayed round-1 submission after restart: %v, want ErrStaleSubmission", err)
			}
		})
	}
}

// TestDistributedMergeMatchesSingleProcess pins that distribution changes
// where the computation runs, not what it computes: three BWAuth columns
// (the -sim measuring role with -dirauth-addr) submit signed views over
// the real RPC to a merge node, and the merged body must equal byte for
// byte both the direct MergeMedianFile of the views and the snapshot a
// single coordinator running the same three BWAuths publishes.
func TestDistributedMergeMatchesSingleProcess(t *testing.T) {
	ctx := context.Background()
	base := mustParse(t, "-sim", "-rounds", "1", "-interval", "0")
	names := []string{"bw0", "bw1", "bw2"}

	// Single-process baseline: one coordinator, three BWAuth columns over
	// identical copies of the sim population.
	var auths []*core.BWAuth
	var source coord.StaticRelays
	for _, name := range names {
		o := base
		o.name = name
		auth, s, _, _, err := population(quiet(), o)
		if err != nil {
			t.Fatal(err)
		}
		auths, source = append(auths, auth), s
	}
	var singleBody []byte
	c, err := coord.New(coord.Config{
		Params:      auths[0].Params,
		Workers:     base.workers,
		MaxAttempts: base.attempts,
		MaxRounds:   1,
		OnSnapshot:  func(_ int, f *dirauth.BandwidthFile) { singleBody = render(t, f) },
	}, auths, source)
	if err != nil {
		t.Fatalf("coord.New single-process: %v", err)
	}
	if err := c.Run(ctx); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if singleBody == nil {
		t.Fatal("single-process coordinator published no snapshot")
	}

	// Distributed: a merge node with the single-process producer name so
	// the outputs compare byte for byte, fed by three BWAuth runs.
	_, n := startMergeNode(t, mustParse(t, "-dirauth", "-auth-secret", "it-secret",
		"-rpc-addr", "127.0.0.1:0", "-bwauths", strings.Join(names, ","),
		"-min-views", "3", "-fresh-for", "1h", "-producer", "coord"))
	for _, name := range names {
		o := mustParse(t, "-sim", "-rounds", "1", "-interval", "0", "-name", name,
			"-dirauth-addr", n.addr.String(), "-auth-secret", "it-secret")
		if err := run(ctx, quiet(), o); err != nil {
			t.Fatalf("BWAuth %s: %v", name, err)
		}
	}
	merged := n.svc.Merged()
	if merged == nil || !reflect.DeepEqual(merged.Views, names) {
		t.Fatalf("merge node did not merge all three views: %+v", merged)
	}

	// Equivalence 1: the service's merge is the direct median-of-views.
	var views []*dirauth.BandwidthFile
	for _, v := range n.svc.Views() {
		views = append(views, v.File)
	}
	directBody := render(t, dirauth.MergeMedianFile("coord", views[0].At, views))
	if !bytes.Equal(merged.Body, directBody) {
		t.Errorf("service merge differs from direct MergeMedianFile:\n--- service\n%s--- direct\n%s", merged.Body, directBody)
	}

	// Equivalence 2: the distributed pipeline reproduces the
	// single-process coordinator's published snapshot byte for byte.
	if !bytes.Equal(merged.Body, singleBody) {
		t.Errorf("distributed merge differs from single-process snapshot:\n--- distributed\n%s--- single\n%s", merged.Body, singleBody)
	}
}
