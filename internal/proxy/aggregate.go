package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"env2vec/internal/quality"
	"env2vec/internal/tsdb"
)

// fleetFanout runs fn against every live backend concurrently and returns
// the per-backend errors (nil entries for successes). Dead backends are
// skipped: the fleet view reflects only members currently in rotation.
func (p *Proxy) fleetFanout(fn func(b *Backend) error) map[string]error {
	errs := make(map[string]error, len(p.backends))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range p.backends {
		if !b.Alive() {
			continue
		}
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			err := fn(b)
			mu.Lock()
			errs[b.name] = err
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	return errs
}

// handleMetrics serves the fleet-aggregated /metrics page: the proxy's own
// routing/failover metrics first, then every live backend's exposition
// parsed and re-emitted with a backend="host:port" label, so one scrape of
// the front tier sees the whole fleet with per-instance attribution.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now().Unix()
	parts := make(map[string][]tsdb.Series)
	var mu sync.Mutex
	errs := p.fleetFanout(func(b *Backend) error {
		resp, err := p.client.Get(b.URL + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		series, err := tsdb.ParseExposition(resp.Body, now)
		if err != nil {
			return err
		}
		mu.Lock()
		parts[b.name] = series
		mu.Unlock()
		return nil
	})

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = p.reg.WriteTo(w) // the proxy's own metrics, HELP/TYPE intact
	var buf bytes.Buffer
	_ = tsdb.MergeExpositions(&buf, "backend", parts)
	_, _ = w.Write(buf.Bytes())
	for name, err := range errs {
		if err != nil {
			p.scrapeErrors.Inc()
			fmt.Fprintf(w, "# backend %s scrape failed: %v\n", name, err)
		}
	}
}

// FleetQuality is the fleet-aggregated GET /quality payload: the union of
// every live backend's per-environment drift state. With affinity routing
// each environment lives on exactly one backend; after a failover the same
// tuple can briefly report from two, and the union keeps the fresher entry
// (greater LastSeen — the environment's current home).
type FleetQuality struct {
	Backends     []BackendQuality     `json:"backends"`
	Environments []FleetEnvSnapshot   `json:"environments"`
	Totals       FleetQualityCounters `json:"totals"`
}

// BackendQuality is one backend's contribution to the fleet view.
type BackendQuality struct {
	Backend      string `json:"backend"`
	Environments int    `json:"environments"`
	Observations uint64 `json:"observations"`
	Error        string `json:"error,omitempty"` // scrape failure, entry excluded from the union
}

// FleetEnvSnapshot is one environment's drift state plus which backend
// currently owns it.
type FleetEnvSnapshot struct {
	quality.EnvSnapshot
	Backend string `json:"backend"`
}

// FleetQualityCounters sums the monitor pipeline counters across the fleet.
type FleetQualityCounters struct {
	Observations  uint64 `json:"observations"`
	Exceedances   uint64 `json:"exceedances"`
	AlarmsEmitted uint64 `json:"alarms_emitted"`
	AlarmsPushed  uint64 `json:"alarms_pushed"`
	AlarmsDropped uint64 `json:"alarms_dropped"`
}

// handleQuality serves the fleet /quality union.
func (p *Proxy) handleQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	snaps := make(map[string]quality.Snapshot)
	var mu sync.Mutex
	errs := p.fleetFanout(func(b *Backend) error {
		resp, err := p.client.Get(b.URL + "/quality")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		var snap quality.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			return err
		}
		mu.Lock()
		snaps[b.name] = snap
		mu.Unlock()
		return nil
	})

	out := FleetQuality{}
	union := make(map[string]FleetEnvSnapshot)
	names := make([]string, 0, len(errs))
	for name := range errs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bq := BackendQuality{Backend: name}
		if err := errs[name]; err != nil {
			p.scrapeErrors.Inc()
			bq.Error = err.Error()
			out.Backends = append(out.Backends, bq)
			continue
		}
		snap := snaps[name]
		bq.Environments = len(snap.Environments)
		bq.Observations = snap.Observations
		out.Backends = append(out.Backends, bq)
		out.Totals.Observations += snap.Observations
		out.Totals.Exceedances += snap.Exceedances
		out.Totals.AlarmsEmitted += snap.AlarmsEmitted
		out.Totals.AlarmsPushed += snap.AlarmsPushed
		out.Totals.AlarmsDropped += snap.AlarmsDropped
		for _, es := range snap.Environments {
			if have, ok := union[es.Env]; ok && have.LastSeen >= es.LastSeen {
				continue // the other backend saw this env more recently
			}
			union[es.Env] = FleetEnvSnapshot{EnvSnapshot: es, Backend: name}
		}
	}
	out.Environments = make([]FleetEnvSnapshot, 0, len(union))
	for _, es := range union {
		out.Environments = append(out.Environments, es)
	}
	sort.Slice(out.Environments, func(i, j int) bool { return out.Environments[i].Env < out.Environments[j].Env })

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
