package router

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/histo"
)

// probeLoop drives replica health and the derived hedge delay until
// Stop. Each round probes every replica's /readyz concurrently; on any
// health transition the ring is rebuilt over the surviving set —
// consistent hashing guarantees only the changed replica's keys move.
func (rt *Router) probeLoop() {
	ticker := time.NewTicker(probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeOnce()
		}
	}
}

// probeOnce runs one probe round: health transitions first, then a
// /metrics scrape of the healthy replicas to recompute the hedge delay
// from their aggregated request latency p95.
func (rt *Router) probeOnce() {
	changed := false
	var wg sync.WaitGroup
	transitions := make([]bool, len(rt.replicas))
	for i, rep := range rt.replicas {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			transitions[i] = rt.probeReplica(rep)
		}(i, rep)
	}
	wg.Wait()
	for _, t := range transitions {
		changed = changed || t
	}
	if changed {
		rt.rebuildRing()
	}
	rt.m.probes.Add(1)
	rt.deriveHedgeDelay()
}

// probeReplica probes one replica and updates its streaks; it reports
// whether the replica's health flipped. In-band failure notes since
// the last round count as one failed probe equivalent — a replica that
// just broke a live request shouldn't need two more probe ticks to be
// believed.
func (rt *Router) probeReplica(rep *replica) (flipped bool) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/readyz", nil)
	if err == nil {
		resp, rerr := rt.client.Do(req)
		if rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	notes := rep.failNote.Swap(0)

	if ok && notes == 0 {
		rep.failRuns = 0
		rep.okRuns++
		if !rep.healthy.Load() && rep.okRuns >= okThreshold {
			rep.healthy.Store(true)
			return true
		}
		return false
	}
	rep.okRuns = 0
	rep.failRuns++
	if rep.healthy.Load() && rep.failRuns >= failThreshold {
		rep.healthy.Store(false)
		return true
	}
	return false
}

// deriveHedgeDelay scrapes each healthy replica's /metrics, merges the
// rpserved_request_seconds histograms, and sets the hedge delay to the
// aggregate p95 (clamped to [hedgeMin, hedgeMax]). Until enough
// samples exist the delay stays at hedgeMin — hedging early against an
// unknown distribution is cheaper than never hedging.
func (rt *Router) deriveHedgeDelay() {
	var agg histo.Snapshot
	for _, rep := range rt.replicas {
		if !rep.healthy.Load() {
			continue
		}
		snap, err := rt.scrapeHistogram(rep, "rpserved_request_seconds")
		if err != nil {
			continue
		}
		if merged, err := agg.Merge(snap); err == nil {
			agg = merged
		}
	}
	if agg.Count < 20 {
		rt.hedgeDelayNS.Store(int64(hedgeMin))
		return
	}
	d := time.Duration(agg.Quantile(0.95) * float64(time.Second))
	if d < hedgeMin {
		d = hedgeMin
	}
	if d > hedgeMax {
		d = hedgeMax
	}
	rt.hedgeDelayNS.Store(int64(d))
}

// scrapeHistogram fetches one replica's /metrics and parses the named
// histogram out of it.
func (rt *Router) scrapeHistogram(rep *replica, name string) (histo.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/metrics", nil)
	if err != nil {
		return histo.Snapshot{}, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return histo.Snapshot{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return histo.Snapshot{}, err
	}
	return histo.ParsePrometheus(body, name)
}
