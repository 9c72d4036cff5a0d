package dirauth

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"flashflow/internal/metrics"
)

// MergeService is the directory authority's submission-handling side of
// the distributed control plane: it accepts signed v3bw views from
// registered BWAuths, enforces signature / version / freshness / round
// monotonicity, and maintains the median-of-views merged bandwidth file
// (the §4.3 deployment model, where each BWAuth measures independently
// and the directory authority folds their views together).
//
// The median merge is what bounds a Byzantine BWAuth's influence: with
// 2f+1 registered views, f dishonest BWAuths can shift a relay's merged
// capacity only within the range spanned by the honest views — they can
// never push it beyond what some honest BWAuth reported. A dishonest
// BWAuth also cannot speak for another (submissions are signed
// end-to-end), cannot replay an old view (per-BWAuth rounds are strictly
// increasing), and cannot linger forever (views age out of the freshness
// window and are excluded from subsequent merges).
//
// Persistence is the caller's concern, wired through hooks: OnAccept
// fires for every accepted submission (coordd -dirauth appends it to the
// durable store) and Restore re-seeds accepted views after a restart, so
// the freshness windows and the merged file survive a crash without
// waiting a full round for every BWAuth to resubmit.

// Typed rejection reasons. Submit wraps them with context; callers and
// tests match with errors.Is.
var (
	// ErrUnknownBWAuth marks a submission naming an unregistered BWAuth.
	ErrUnknownBWAuth = errors.New("dirauth: submission from unregistered bwauth")
	// ErrBadSignature marks a submission whose signature does not verify
	// under the named BWAuth's registered key.
	ErrBadSignature = errors.New("dirauth: submission signature invalid")
	// ErrSubmissionVersion marks a submission format version outside this
	// build's accepted range — fail closed, never guess at the body.
	ErrSubmissionVersion = errors.New("dirauth: unsupported submission version")
	// ErrStaleSubmission marks a round not newer than the BWAuth's last
	// accepted one: duplicates and replays land here.
	ErrStaleSubmission = errors.New("dirauth: submission round not newer than last accepted")
	// ErrBadBody marks a submission whose body is not a parseable v3bw
	// document.
	ErrBadBody = errors.New("dirauth: submission body does not parse as v3bw")
	// ErrNoFreshViews marks a merge attempt with too few fresh views.
	ErrNoFreshViews = errors.New("dirauth: not enough fresh views to merge")
)

// MergeConfig configures a MergeService.
type MergeConfig struct {
	// Keys maps each registered BWAuth name to its submission-verifying
	// public key. Required, non-empty: the registered set is the merge
	// node's root of trust.
	Keys map[string]ed25519.PublicKey
	// FreshFor is the per-BWAuth freshness window: a view received more
	// than FreshFor ago is excluded from merges (its BWAuth is presumed
	// down or partitioned). Zero means views never expire.
	FreshFor time.Duration
	// MinViews is the minimum number of fresh views a merge needs
	// (default 1). Deployments wanting Byzantine tolerance set it to a
	// majority of the registered set.
	MinViews int
	// Producer names the merged file's producer header (default
	// "dirauth").
	Producer string
	// SplitViewFactor is the cross-view divergence ratio (max/min of a
	// relay's capacity across fresh views) above which the relay is
	// flagged as a §5 split-view suspect at the merge boundary. Zero
	// selects the default 1.5; negative disables the check.
	SplitViewFactor float64
	// Now supplies the clock (default time.Now). Tests inject a fake to
	// drive the freshness window deterministically.
	Now func() time.Time
	// Counters receives the dirauth_submission_* / dirauth_merge_* /
	// dirauth_split_view_* counter families; nil creates a private
	// registry.
	Counters *metrics.Counters
	// OnAccept fires after a submission is accepted, before the re-merge.
	// The dirauth coordd mode persists the view from here.
	OnAccept func(v View)
	// OnMerge fires after each successful re-merge with the new merged
	// state. The dirauth coordd mode publishes the snapshot from here.
	OnMerge func(m Merged)
}

// View is one BWAuth's accepted, parsed submission.
type View struct {
	BWAuth   string
	Round    int
	Version  uint16
	Body     []byte
	Received time.Time
	File     *BandwidthFile
}

// Merged is the outcome of one merge: the median-of-views bandwidth file
// and its provenance.
type Merged struct {
	// Round is the highest round among contributing views.
	Round int
	// Views lists the contributing BWAuths, sorted.
	Views []string
	// SplitView lists relays whose capacity diverged across views beyond
	// SplitViewFactor, sorted.
	SplitView []string
	// File is the merged bandwidth file; Body/ETag are its rendered form.
	File *BandwidthFile
	Body []byte
	ETag string
}

// MergeService implements the submission/merge state machine. Safe for
// concurrent use.
type MergeService struct {
	cfg MergeConfig

	mu     sync.Mutex
	views  map[string]*View
	merged *Merged
}

// NewMergeService validates cfg and builds the service.
func NewMergeService(cfg MergeConfig) (*MergeService, error) {
	if len(cfg.Keys) == 0 {
		return nil, errors.New("dirauth: merge service needs registered bwauth keys")
	}
	if cfg.MinViews <= 0 {
		cfg.MinViews = 1
	}
	if cfg.MinViews > len(cfg.Keys) {
		return nil, fmt.Errorf("dirauth: MinViews %d exceeds registered bwauths %d", cfg.MinViews, len(cfg.Keys))
	}
	if cfg.Producer == "" {
		cfg.Producer = "dirauth"
	}
	if cfg.SplitViewFactor == 0 {
		cfg.SplitViewFactor = 1.5
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewCounters()
	}
	// Pre-register at zero: a scrape of a merge node that has rejected
	// nothing still exposes the full stable counter family.
	for _, name := range []string{
		"dirauth_submissions_received",
		"dirauth_submissions_accepted",
		"dirauth_submissions_rejected_unknown",
		"dirauth_submissions_rejected_signature",
		"dirauth_submissions_rejected_version",
		"dirauth_submissions_rejected_stale",
		"dirauth_submissions_rejected_body",
		"dirauth_merges",
		"dirauth_merge_stale_views_excluded",
		"dirauth_split_view_relays",
	} {
		cfg.Counters.Add(name, 0)
	}
	return &MergeService{cfg: cfg, views: make(map[string]*View, len(cfg.Keys))}, nil
}

// Submit validates one submission and, on acceptance, re-merges. The
// returned Merged is the post-acceptance merged state (nil when fewer
// than MinViews fresh views exist yet). Rejections return a typed error
// and change nothing.
//
// Submit takes ownership of sub.Body: an accepted view keeps the slice
// itself, not a copy, so the caller must not modify it afterwards.
// DecodeSubmission's result satisfies this when its input is a buffer
// the caller no longer uses.
func (m *MergeService) Submit(sub *Submission) (*Merged, error) {
	m.cfg.Counters.Add("dirauth_submissions_received", 1)
	pub, ok := m.cfg.Keys[sub.BWAuth]
	if !ok {
		m.cfg.Counters.Add("dirauth_submissions_rejected_unknown", 1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownBWAuth, sub.BWAuth)
	}
	if sub.Version < SubmissionVersionMin || sub.Version > SubmissionVersionMax {
		m.cfg.Counters.Add("dirauth_submissions_rejected_version", 1)
		return nil, fmt.Errorf("%w: version %d, this node accepts [%d,%d]",
			ErrSubmissionVersion, sub.Version, SubmissionVersionMin, SubmissionVersionMax)
	}
	if !sub.VerifySig(pub) {
		m.cfg.Counters.Add("dirauth_submissions_rejected_signature", 1)
		return nil, fmt.Errorf("%w: bwauth %q round %d", ErrBadSignature, sub.BWAuth, sub.Round)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.views[sub.BWAuth]; ok && sub.Round <= prev.Round {
		m.cfg.Counters.Add("dirauth_submissions_rejected_stale", 1)
		return nil, fmt.Errorf("%w: bwauth %q round %d, last accepted %d",
			ErrStaleSubmission, sub.BWAuth, sub.Round, prev.Round)
	}
	file, err := ParseV3BW(bytes.NewReader(sub.Body))
	if err != nil {
		m.cfg.Counters.Add("dirauth_submissions_rejected_body", 1)
		return nil, fmt.Errorf("%w: %v", ErrBadBody, err)
	}

	v := View{
		BWAuth:   sub.BWAuth,
		Round:    sub.Round,
		Version:  sub.Version,
		Body:     sub.Body,
		Received: m.cfg.Now(),
		File:     file,
	}
	m.views[sub.BWAuth] = &v
	m.cfg.Counters.Add("dirauth_submissions_accepted", 1)
	if m.cfg.OnAccept != nil {
		m.cfg.OnAccept(v)
	}
	merged, err := m.remergeLocked()
	if errors.Is(err, ErrNoFreshViews) {
		return nil, nil // accepted; merge pending more views
	}
	return merged, err
}

// Restore re-seeds one previously accepted view (after a restart, from
// the durable store). The signature is not re-checked — it was verified
// at acceptance — but the body must still parse. Hooks do not fire; call
// Remerge once after restoring everything.
func (m *MergeService) Restore(bwauth string, round int, version uint16, body []byte, received time.Time) error {
	if _, ok := m.cfg.Keys[bwauth]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBWAuth, bwauth)
	}
	file, err := ParseV3BW(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadBody, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.views[bwauth]; ok && round <= prev.Round {
		return fmt.Errorf("%w: bwauth %q round %d, last accepted %d", ErrStaleSubmission, bwauth, round, prev.Round)
	}
	m.views[bwauth] = &View{
		BWAuth: bwauth, Round: round, Version: version,
		Body: append([]byte(nil), body...), Received: received, File: file,
	}
	return nil
}

// Remerge recomputes the merged file from the current fresh views. It
// returns ErrNoFreshViews when fewer than MinViews views are fresh.
func (m *MergeService) Remerge() (*Merged, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.remergeLocked()
}

// remergeLocked merges the fresh views; called with m.mu held.
func (m *MergeService) remergeLocked() (*Merged, error) {
	now := m.cfg.Now()
	fresh := make([]*View, 0, len(m.views))
	for _, v := range m.views {
		if m.cfg.FreshFor > 0 && now.Sub(v.Received) > m.cfg.FreshFor {
			m.cfg.Counters.Add("dirauth_merge_stale_views_excluded", 1)
			continue
		}
		fresh = append(fresh, v)
	}
	if len(fresh) < m.cfg.MinViews {
		return nil, fmt.Errorf("%w: %d fresh, need %d", ErrNoFreshViews, len(fresh), m.cfg.MinViews)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].BWAuth < fresh[j].BWAuth })

	round := 0
	var at time.Duration
	names := make([]string, len(fresh))
	files := make([]*BandwidthFile, len(fresh))
	for i, v := range fresh {
		names[i] = v.BWAuth
		files[i] = v.File
		if v.Round > round {
			round = v.Round
		}
		if v.File.At > at {
			at = v.File.At
		}
	}

	// The split-view check (§5, re-homed at the merge boundary) rides the
	// median's pass: in-process, the coordinator compares one relay's
	// estimates across its BWAuth columns within a round; here, the merge
	// node compares the relay's capacity across the independent BWAuths'
	// views. A relay showing one capacity to some BWAuths and a
	// significantly different one to others — the selective-lying attack
	// — diverges past SplitViewFactor and is flagged.
	entries, split := medianMerge(files, m.cfg.SplitViewFactor)
	merged := &Merged{
		Round:     round,
		Views:     names,
		SplitView: split,
		File:      NewBandwidthFile(m.cfg.Producer, at, entries),
	}
	body, etag, err := merged.File.Render()
	if err != nil {
		return nil, fmt.Errorf("dirauth: render merged file: %w", err)
	}
	merged.Body, merged.ETag = body, etag
	m.merged = merged
	m.cfg.Counters.Add("dirauth_merges", 1)
	m.cfg.Counters.Add("dirauth_split_view_relays", int64(len(merged.SplitView)))
	if m.cfg.OnMerge != nil {
		m.cfg.OnMerge(*merged)
	}
	return merged, nil
}

// Merged returns the last successful merge, or nil before the first.
func (m *MergeService) Merged() *Merged {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.merged
}

// Views returns a snapshot of the accepted views (copies of the
// bookkeeping, shared parsed files).
func (m *MergeService) Views() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.views))
	for _, v := range m.views {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BWAuth < out[j].BWAuth })
	return out
}

// MergeStatus is the merge node's observable state, served by the obs
// plane's /dirauth endpoint.
type MergeStatus struct {
	// Registered lists the configured BWAuth names, sorted.
	Registered []string `json:"registered"`
	// Views maps each submitting BWAuth to its last accepted view.
	Views map[string]ViewStatus `json:"views"`
	// MergedRound / MergedRelays / MergedViews describe the last merge
	// (zero / nil before the first).
	MergedRound  int      `json:"merged_round"`
	MergedRelays int      `json:"merged_relays"`
	MergedViews  []string `json:"merged_views,omitempty"`
	// SplitViewRelays lists relays flagged divergent at the last merge.
	SplitViewRelays []string `json:"split_view_relays,omitempty"`
}

// ViewStatus is one BWAuth's row in MergeStatus.
type ViewStatus struct {
	Round    int       `json:"round"`
	Received time.Time `json:"received"`
	Fresh    bool      `json:"fresh"`
	Relays   int       `json:"relays"`
}

// Status snapshots the service for the observability plane.
func (m *MergeService) Status() MergeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MergeStatus{
		Registered: make([]string, 0, len(m.cfg.Keys)),
		Views:      make(map[string]ViewStatus, len(m.views)),
	}
	for name := range m.cfg.Keys {
		st.Registered = append(st.Registered, name)
	}
	sort.Strings(st.Registered)
	now := m.cfg.Now()
	for name, v := range m.views {
		st.Views[name] = ViewStatus{
			Round:    v.Round,
			Received: v.Received,
			Fresh:    m.cfg.FreshFor <= 0 || now.Sub(v.Received) <= m.cfg.FreshFor,
			Relays:   len(v.File.Entries),
		}
	}
	if m.merged != nil {
		st.MergedRound = m.merged.Round
		st.MergedRelays = len(m.merged.File.Entries)
		st.MergedViews = append([]string(nil), m.merged.Views...)
		st.SplitViewRelays = append([]string(nil), m.merged.SplitView...)
	}
	return st
}
