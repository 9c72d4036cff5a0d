package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"flashflow/internal/dirauth"
	"flashflow/internal/obs"
	"flashflow/internal/rpc"
	"flashflow/internal/store"
)

// mergeNode is the -dirauth role: the merge service, its RPC listener
// and the durable record of the accepted submissions that lets a restart
// recover its views and merged output before any BWAuth resubmits.
type mergeNode struct {
	d    *daemon
	svc  *dirauth.MergeService
	rpc  *rpc.Server
	addr net.Addr // the bound RPC address

	// mu guards state and accepts.
	mu      sync.Mutex
	state   *store.State
	accepts int
}

// runMergeNode serves RPC submissions until ctx is cancelled.
func runMergeNode(ctx context.Context, d *daemon) error {
	n, err := newMergeNode(d)
	if err != nil {
		return err
	}
	defer n.rpc.Close()
	loop := func(ctx context.Context) error {
		<-ctx.Done()
		return nil
	}
	return d.serve(ctx, obs.Config{Merge: n.svc}, "/metrics /dirauth /v3bw", loop, func(context.Context) { n.close() })
}

// newMergeNode builds the merge service, recovers the persisted views
// and merges them (so /v3bw serves the pre-restart file before any
// BWAuth resubmits), then opens the RPC listener on -rpc-addr.
func newMergeNode(d *daemon) (*mergeNode, error) {
	o, log := d.o, d.log
	// Demo key management (see OPERATIONS.md): both sides derive each
	// BWAuth's keypair from the shared secret and the BWAuth's name. A
	// production deployment registers real per-BWAuth public keys here
	// and never holds their private halves.
	keys := make(map[string]ed25519.PublicKey, len(o.bwauths))
	authorized := make([]ed25519.PublicKey, 0, len(o.bwauths))
	for _, name := range o.bwauths {
		id := rpc.DeriveIdentity(o.authSecret, name)
		keys[name] = id.Pub
		authorized = append(authorized, id.Pub)
	}

	n := &mergeNode{d: d, state: store.NewState()}
	var err error
	if d.store != nil {
		if n.state, err = d.store.Load(); err != nil {
			return nil, fmt.Errorf("coordd: load state: %w", err)
		}
	}
	n.svc, err = dirauth.NewMergeService(dirauth.MergeConfig{
		Keys:     keys,
		FreshFor: o.freshFor,
		MinViews: o.minViews,
		Producer: o.producer,
		Counters: d.counters,
		// Receipt times are stamped at the store's resolution (whole
		// seconds), so a restarted node's views, freshness windows and
		// /dirauth state equal the ones it persisted.
		Now:      func() time.Time { return time.Now().Truncate(time.Second) },
		OnAccept: n.accept,
		OnMerge: func(m dirauth.Merged) {
			d.publish(m.Round, m.File)
			human := fmt.Sprintf("merge: round %d from %d views (%s), %d relays",
				m.Round, len(m.Views), strings.Join(m.Views, ","), len(m.File.Entries))
			if len(m.SplitView) > 0 {
				human += fmt.Sprintf("; split-view suspects: %s", strings.Join(m.SplitView, ","))
			}
			log.event("merge", human,
				"round", m.Round, "views", m.Views, "relays", len(m.File.Entries),
				"split_view", m.SplitView)
		},
	})
	if err != nil {
		return nil, err
	}

	// Recover persisted views: freshness windows resume from the original
	// receipt times, and a merge (if enough views are still fresh)
	// republishes /v3bw before the listener even opens.
	if len(n.state.Submissions) > 0 {
		for name, sub := range n.state.Submissions {
			if err := n.svc.Restore(name, sub.Round, sub.Version, sub.Body, time.Unix(sub.Unix, 0)); err != nil {
				log.event("recover_error", "coordd: restore submission: "+err.Error(),
					"bwauth", name, "error", err.Error())
			}
		}
		log.event("recover",
			fmt.Sprintf("coordd: recovered %d persisted submission(s) from %s", len(n.state.Submissions), o.stateDir),
			"state_dir", o.stateDir, "submissions", len(n.state.Submissions))
		if _, err := n.svc.Remerge(); err != nil {
			log.event("recover", "coordd: no merge from recovered views: "+err.Error(), "error", err.Error())
		}
	}

	n.rpc, err = rpc.NewServer(rpc.ServerConfig{
		Authorized:    authorized,
		Counters:      d.counters,
		CounterPrefix: "dirauth_rpc",
		Handler:       n.handle,
	})
	if err != nil {
		return nil, err
	}
	if n.addr, err = n.rpc.Start(o.rpcAddr); err != nil {
		return nil, fmt.Errorf("coordd: rpc listener: %w", err)
	}
	log.event("rpc", fmt.Sprintf("dirauth: rpc on %s, registered bwauths: %s", n.addr, strings.Join(o.bwauths, ",")),
		"addr", n.addr.String(), "bwauths", o.bwauths)
	return n, nil
}

// handle is the RPC handler: one signed submission per call.
func (n *mergeNode) handle(_ ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
	if method != rpc.MethodSubmitV3BW {
		return nil, fmt.Errorf("unknown method %d", method)
	}
	sub, err := dirauth.DecodeSubmission(body)
	if err != nil {
		return nil, err
	}
	merged, err := n.svc.Submit(sub)
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return fmt.Appendf(nil, "accepted %s round %d; awaiting more views", sub.BWAuth, sub.Round), nil
	}
	return fmt.Appendf(nil, "accepted %s round %d; merged round %d over %d views",
		sub.BWAuth, sub.Round, merged.Round, len(merged.Views)), nil
}

// accept records one accepted submission in the checkpointed state and
// the WAL, checkpointing every -checkpoint-every "rounds" of submissions
// (len(-bwauths) accepts each).
func (n *mergeNode) accept(v dirauth.View) {
	log := n.d.log
	log.event("submission",
		fmt.Sprintf("submission: %s round %d (%d bytes)", v.BWAuth, v.Round, len(v.Body)),
		"bwauth", v.BWAuth, "round", v.Round, "bytes", len(v.Body))
	n.mu.Lock()
	defer n.mu.Unlock()
	n.state.Submissions[v.BWAuth] = store.SubmissionRecord{
		Round: v.Round, Version: v.Version, Unix: v.Received.Unix(),
		Body: append([]byte(nil), v.Body...),
	}
	if n.d.store == nil {
		return
	}
	if err := n.d.store.Append(store.Record{
		Kind: store.KindSubmission, Relay: v.BWAuth, Round: v.Round,
		Version: v.Version, Unix: v.Received.Unix(), Body: v.Body,
	}); err != nil {
		log.event("store_error", "  store append: "+err.Error(), "error", err.Error())
	}
	n.accepts++
	if every := n.d.o.ckptEvery * len(n.d.o.bwauths); every > 0 && n.accepts%every == 0 {
		n.checkpointLocked()
	}
}

// close stops the RPC listener and takes the final checkpoint.
func (n *mergeNode) close() {
	n.rpc.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.checkpointLocked()
}

// checkpointLocked persists the accepted submissions as a full snapshot;
// n.mu must be held.
func (n *mergeNode) checkpointLocked() {
	if n.d.store == nil {
		return
	}
	if err := n.d.store.Checkpoint(n.state); err != nil {
		n.d.log.event("store_error", "coordd: store checkpoint: "+err.Error(), "error", err.Error())
	}
}
