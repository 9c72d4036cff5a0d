package main

// The publication path: each BWAuth's view is rendered, signed and
// submitted over loopback rpc to a dirauth.MergeService, whose merged
// file is published through an obs.SnapshotHolder and fetched back over
// HTTP from the observability server — the path a directory authority's
// /v3bw consumers see.

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"flashflow/internal/dirauth"
	"flashflow/internal/obs"
	"flashflow/internal/rpc"
	"flashflow/internal/wire"
)

// publishLog holds the publication path's timings.
type publishLog struct {
	tracing bool

	mu sync.Mutex
	d  publishData
}

type publishData struct {
	totalS   []float64
	renderMs []float64
	signMs   []float64
	callMs   []float64
	submitMs []float64
	mergeMs  []float64
	getMs    []float64
	obsMs    []float64 // SnapshotHolder.Publish, the merged and the coordinator's
	v3bwMB   float64
	spans    []span // obs publishes, for the coordinator's self time
}

func (l *publishLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.d = publishData{}
}

// add appends v to the series dst selects.
func (l *publishLog) add(dst func(*publishData) *[]float64, v float64) {
	l.mu.Lock()
	p := dst(&l.d)
	*p = append(*p, v)
	l.mu.Unlock()
}

// timedPublish publishes f into h, recording the obs layer's time.
func (l *publishLog) timedPublish(h *obs.SnapshotHolder, round int, f *dirauth.BandwidthFile) error {
	start := time.Now()
	err := h.Publish(round, f, start)
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.d.obsMs = append(l.d.obsMs, ms(end.Sub(start)))
	if l.tracing {
		l.d.spans = append(l.d.spans, span{since(start), since(end)})
	}
	return err
}

// publisher is the merge node plus one rpc client per BWAuth.
type publisher struct {
	names   []string
	ids     []wire.Identity
	clients []*rpc.Client
	svc     *dirauth.MergeService
	rpcSrv  *rpc.Server
	holder  *obs.SnapshotHolder
	httpSrv *obs.Server
	url     string
	hc      *http.Client
	log     *publishLog
	round   int
	// mergeErr is set by the OnMerge hook, which runs inside Submit on
	// the rpc server's goroutine; publish reads it after the calls return.
	mu       sync.Mutex
	mergeErr error
}

func newPublisher(secret string, names []string, log *publishLog) (*publisher, error) {
	p := &publisher{names: names, log: log, holder: &obs.SnapshotHolder{}}
	keys := make(map[string]ed25519.PublicKey, len(names))
	authorized := make([]ed25519.PublicKey, 0, len(names))
	for _, n := range names {
		id := rpc.DeriveIdentity(secret, "bwauth/"+n)
		p.ids = append(p.ids, id)
		keys[n] = id.Pub
		authorized = append(authorized, id.Pub)
	}
	var err error
	p.svc, err = dirauth.NewMergeService(dirauth.MergeConfig{
		Keys:     keys,
		MinViews: len(names),
		OnMerge: func(m dirauth.Merged) {
			if err := log.timedPublish(p.holder, m.Round, m.File); err != nil {
				p.mu.Lock()
				p.mergeErr = fmt.Errorf("publish merged snapshot: %w", err)
				p.mu.Unlock()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	p.rpcSrv, err = rpc.NewServer(rpc.ServerConfig{
		Authorized: authorized,
		Handler: func(_ ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
			if method != rpc.MethodSubmitV3BW {
				return nil, fmt.Errorf("unknown method %d", method)
			}
			sub, err := dirauth.DecodeSubmission(body)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			merged, err := p.svc.Submit(sub)
			d := ms(time.Since(start))
			log.add(func(d *publishData) *[]float64 { return &d.submitMs }, d)
			if err != nil {
				return nil, err
			}
			if merged != nil {
				log.add(func(d *publishData) *[]float64 { return &d.mergeMs }, d)
			}
			return []byte("ok"), nil
		},
	})
	if err != nil {
		return nil, err
	}
	addr, err := p.rpcSrv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for _, id := range p.ids {
		c, err := rpc.NewClient(rpc.ClientConfig{
			Identity: id,
			Dial: func(ctx context.Context) (io.ReadWriteCloser, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr.String())
			},
		})
		if err != nil {
			p.close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	p.httpSrv = obs.NewServer(obs.Config{Snapshot: p.holder})
	haddr, err := p.httpSrv.Start("127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	p.url = "http://" + haddr.String() + "/v3bw"
	p.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return p, nil
}

// publish submits the views (index-aligned with the publisher's names),
// fetches the merged /v3bw, and checks it: byte-identical to
// dirauth.MergeMedianFile over the submitted views, covering wantRelays relays, and
// served with the merged body's ETag.
func (p *publisher) publish(ctx context.Context, at time.Duration, views []*dirauth.BandwidthFile, wantRelays int) error {
	p.round++
	bodies := make([][]byte, len(views))
	start := time.Now()
	for i, v := range views {
		t0 := time.Now()
		body, _, err := v.Render()
		if err != nil {
			return fmt.Errorf("render view %s: %w", p.names[i], err)
		}
		t1 := time.Now()
		bodies[i] = body
		sub := &dirauth.Submission{BWAuth: p.names[i], Round: p.round, Version: dirauth.SubmissionVersionMax, Body: body}
		sub.Sign(p.ids[i].Priv)
		t2 := time.Now()
		if _, err := p.clients[i].Call(ctx, rpc.MethodSubmitV3BW, sub.Encode()); err != nil {
			return fmt.Errorf("submit view %s: %w", p.names[i], err)
		}
		t3 := time.Now()
		p.log.add(func(d *publishData) *[]float64 { return &d.renderMs }, ms(t1.Sub(t0)))
		p.log.add(func(d *publishData) *[]float64 { return &d.signMs }, ms(t2.Sub(t1)))
		p.log.add(func(d *publishData) *[]float64 { return &d.callMs }, ms(t3.Sub(t2)))
	}
	t0 := time.Now()
	got, etag, err := p.get(ctx)
	if err != nil {
		return err
	}
	end := time.Now()
	p.log.add(func(d *publishData) *[]float64 { return &d.getMs }, ms(end.Sub(t0)))
	p.log.add(func(d *publishData) *[]float64 { return &d.totalS }, end.Sub(start).Seconds())

	p.mu.Lock()
	mergeErr := p.mergeErr
	p.mu.Unlock()
	if mergeErr != nil {
		return mergeErr
	}
	merged := p.svc.Merged()
	if merged == nil {
		return fmt.Errorf("no merged file after %d views", len(views))
	}
	// The reference merges the submitted bodies as parsed back: the text
	// format rounds capacities, so merging the in-memory views would
	// differ in the bw column's rounding.
	parsed := make([]*dirauth.BandwidthFile, len(bodies))
	for i, b := range bodies {
		if parsed[i], err = dirauth.ParseV3BW(bytes.NewReader(b)); err != nil {
			return fmt.Errorf("parse submitted view %s: %w", p.names[i], err)
		}
	}
	want, _, err := dirauth.MergeMedianFile("dirauth", at, parsed).Render()
	if err != nil {
		return err
	}
	if !bytes.Equal(merged.Body, want) {
		return fmt.Errorf("merged body (%d bytes) differs from MergeMedianFile over the views (%d bytes)", len(merged.Body), len(want))
	}
	if len(merged.File.Entries) != wantRelays {
		return fmt.Errorf("merged file covers %d relays, population has %d", len(merged.File.Entries), wantRelays)
	}
	if !bytes.Equal(got, merged.Body) || etag != merged.ETag {
		return fmt.Errorf("GET /v3bw returned %d bytes, ETag %s; published %d bytes, ETag %s", len(got), etag, len(merged.Body), merged.ETag)
	}
	p.log.mu.Lock()
	p.log.d.v3bwMB = float64(len(got)) / (1 << 20)
	p.log.mu.Unlock()
	return nil
}

func (p *publisher) get(ctx context.Context) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("GET /v3bw: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("GET /v3bw: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET /v3bw: %s", resp.Status)
	}
	return body, resp.Header.Get("Etag"), nil
}

func (p *publisher) close() {
	for _, c := range p.clients {
		c.Close()
	}
	if p.rpcSrv != nil {
		p.rpcSrv.Close()
	}
	if p.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		p.httpSrv.Shutdown(ctx)
		cancel()
	}
	if p.hc != nil {
		p.hc.CloseIdleConnections()
	}
}
