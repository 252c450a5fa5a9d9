// Package modelserver is the model registry of workflow steps (2) and (5):
// the training pipeline publishes versioned model snapshots ("essentially a
// weight matrix") after each retrain, and the prediction pipeline fetches
// the latest snapshot over HTTP before each execution.
//
// The registry is one lock over one name → versions map, optionally
// durable: with WithDir, every published version is committed to one
// append-only log (checksummed, length-prefixed records; see store.go)
// before Publish returns, and OpenRegistry replays the log so a daemon
// restart loses nothing. Read-only replicas follow a primary with Replica,
// which polls the primary's name → latest-version endpoint and pulls
// missing versions; see docs/serving.md for the topology.
package modelserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"env2vec/internal/nn"
	"env2vec/internal/obs"
)

// Version is one published model snapshot.
type Version struct {
	Name    string
	Number  int
	Data    []byte // gob-encoded nn.Snapshot
	Created int64  // unix seconds
}

// ErrClosed is returned by Publish and replica imports after Close: the
// log is gone, so a version accepted then would not survive a reopen.
var ErrClosed = errors.New("modelserver: registry is closed")

// ErrShardedLayout is returned by OpenRegistry for a directory written by
// the sharded registry (it holds a MANIFEST and one log per shard). Such a
// directory is never re-read silently; the error says how to migrate it.
var ErrShardedLayout = errors.New("modelserver: registry directory has the old sharded layout")

// Registry stores versioned snapshots per model name.
type Registry struct {
	mu        sync.RWMutex
	versions  map[string][]Version
	store     *logStore // nil when the registry is memory-only
	closed    bool
	recovered uint64 // corrupt log tails quarantined at open; set before OpenRegistry returns

	// Long-poll broadcast, guarded by mu: waitCh is closed and replaced on
	// every committed publish or import, so anyone holding the previous
	// channel wakes up.
	waitCh chan struct{}
}

// Option configures OpenRegistry.
type Option func(*registryOptions)

type registryOptions struct {
	dir string
}

// WithDir makes the registry durable: versions are committed to an
// append-only log under dir and replayed on open.
func WithDir(dir string) Option { return func(o *registryOptions) { o.dir = dir } }

// NewRegistry returns an empty in-memory registry. Use OpenRegistry with
// WithDir for one that survives restarts.
func NewRegistry() *Registry {
	return &Registry{versions: make(map[string][]Version), waitCh: make(chan struct{})}
}

// OpenRegistry builds a registry from options. With WithDir it replays the
// log (restoring every committed version), truncating and quarantining any
// torn tail record instead of serving it; the number of quarantined tails
// is available via RecoveredRecords.
func OpenRegistry(opts ...Option) (*Registry, error) {
	var o registryOptions
	for _, opt := range opts {
		opt(&o)
	}
	r := NewRegistry()
	if o.dir == "" {
		return r, nil
	}
	if _, err := os.Stat(filepath.Join(o.dir, "MANIFEST")); err == nil {
		return nil, fmt.Errorf("%w in %s: open it once with the sharded release (which repairs torn tails), then `cat %s/shard-*/log > NEWDIR/log` and open NEWDIR",
			ErrShardedLayout, o.dir, o.dir)
	}
	st, recovered, err := openLogStore(o.dir, r.applyReplay)
	if err != nil {
		return nil, err
	}
	r.store, r.recovered = st, uint64(recovered)
	return r, nil
}

// applyReplay restores one record during open. Each name's version numbers
// must be dense: a gap or repeat means the log is damaged from this record
// on, and the store treats it like a failed checksum.
func (r *Registry) applyReplay(v Version) error {
	if v.Number != len(r.versions[v.Name])+1 {
		return fmt.Errorf("%w: version %d of %q after %d replayed",
			errCorruptRecord, v.Number, v.Name, len(r.versions[v.Name]))
	}
	r.versions[v.Name] = append(r.versions[v.Name], v)
	return nil
}

// commit makes v visible: to the log first (when durable), then to the
// map, then to long-pollers, so a version is never observable without
// being replayable. The caller holds mu for writing.
func (r *Registry) commit(v Version) error {
	if r.closed {
		return ErrClosed
	}
	if r.store != nil {
		if err := r.store.append(v); err != nil {
			return err
		}
	}
	r.versions[v.Name] = append(r.versions[v.Name], v)
	close(r.waitCh)
	r.waitCh = make(chan struct{})
	return nil
}

// Publish stores a new version of the named model and returns its number.
// On a durable registry the version is fsynced to the log before the call
// returns.
func (r *Registry) Publish(name string, snap *nn.Snapshot, created int64) (int, error) {
	data, err := snap.Bytes()
	if err != nil {
		return 0, fmt.Errorf("modelserver: encode snapshot: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := Version{Name: name, Number: len(r.versions[name]) + 1, Data: data, Created: created}
	if err := r.commit(v); err != nil {
		return 0, err
	}
	return v.Number, nil
}

// importVersion installs a version pulled from a primary, keeping its
// number. Versions already held are skipped (idempotent re-pulls); a gap
// means the caller fetched out of order and is refused. Used by Replica.
func (r *Registry) importVersion(v Version) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := len(r.versions[v.Name])
	if v.Number <= have {
		return false, nil
	}
	if v.Number != have+1 {
		return false, fmt.Errorf("modelserver: import version %d of %q with only %d local", v.Number, v.Name, have)
	}
	if err := r.commit(v); err != nil {
		return false, err
	}
	return true, nil
}

// Latest returns the newest version of the named model.
func (r *Registry) Latest(name string) (Version, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vs := r.versions[name]
	if len(vs) == 0 {
		return Version{}, fmt.Errorf("modelserver: no versions of %q", name)
	}
	return vs[len(vs)-1], nil
}

// Get returns a specific version.
func (r *Registry) Get(name string, number int) (Version, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vs := r.versions[name]
	if number < 1 || number > len(vs) {
		return Version{}, fmt.Errorf("modelserver: %q has no version %d", name, number)
	}
	return vs[number-1], nil
}

// Names lists the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.versions))
	for name := range r.versions {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// latestNumbers is the name → latest-version map served at GET /versions
// and diffed by Replica.Sync.
func (r *Registry) latestNumbers() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.versions))
	for name, vs := range r.versions {
		out[name] = len(vs)
	}
	return out
}

// RecoveredRecords reports how many corrupt log tails were quarantined when
// this registry was opened (0 for in-memory registries and clean opens).
func (r *Registry) RecoveredRecords() uint64 { return r.recovered }

// Updated returns a channel that is closed the next time any version is
// published or imported. Grab the channel BEFORE reading the state you
// compare against — then a publish racing your read still wakes you.
func (r *Registry) Updated() <-chan struct{} {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.waitCh
}

// Instrument registers the registry's metrics in reg and returns the
// registry for chaining: env2vec_registry_recovered_records counts log
// tails quarantined at open — a nonzero value after a crash is the signal
// that durability did its job (and that dir/quarantine holds the bytes).
func (r *Registry) Instrument(reg *obs.Registry) *Registry {
	reg.CounterFunc("env2vec_registry_recovered_records", "Corrupt store tail records quarantined during replay.", nil, r.RecoveredRecords)
	return r
}

// Close closes the log of a durable registry. Reads keep working; Publish
// and replica imports return ErrClosed. A second Close returns nil.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.store == nil {
		return nil
	}
	return r.store.close()
}

// Handler serves the registry:
//
//	POST /models/<name>            (gob body) → version number
//	GET  /models/<name>/latest     → gob snapshot
//	GET  /models/<name>/<version>  → gob snapshot
//	GET  /versions                 → {"<name>": latest version, …} (JSON)
//
// A ReadOnly handler refuses publishes with 403: a replica that accepted
// a local publish would take a version number the primary later assigns
// to different bytes, and the two would silently diverge.
type Handler struct {
	Registry *Registry
	Now      func() int64
	ReadOnly bool
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) == 1 && parts[0] == "versions" {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h.serveVersions(w, r)
		return
	}
	if len(parts) < 2 || parts[0] != "models" {
		http.NotFound(w, r)
		return
	}
	name := parts[1]
	switch {
	case r.Method == http.MethodPost && len(parts) == 2:
		if h.ReadOnly {
			http.Error(w, "registry is a replica; publish to the primary", http.StatusForbidden)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		snap, err := nn.DecodeSnapshot(bytes.NewReader(body))
		if err != nil {
			http.Error(w, "invalid snapshot: "+err.Error(), http.StatusBadRequest)
			return
		}
		now := int64(0)
		if h.Now != nil {
			now = h.Now()
		}
		n, err := h.Registry.Publish(name, snap, now)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "%d", n)
	case r.Method == http.MethodGet && len(parts) == 3:
		var v Version
		var err error
		if parts[2] == "latest" {
			// Long-poll: ?wait=<dur> with If-None-Match blocks until a newer
			// version lands (or the wait expires into the usual 304), so
			// watchers see publishes in O(RTT) instead of the poll interval.
			deadline := time.Now().Add(parseWait(r))
			inm := r.Header.Get("If-None-Match")
			for {
				updated := h.Registry.Updated() // grab BEFORE reading, see Updated
				v, err = h.Registry.Latest(name)
				if err != nil || inm == "" || inm != `"`+strconv.Itoa(v.Number)+`"` {
					break
				}
				remaining := time.Until(deadline)
				if remaining <= 0 {
					break
				}
				select {
				case <-updated:
				case <-time.After(remaining):
				case <-r.Context().Done():
					return
				}
			}
		} else {
			num, convErr := strconv.Atoi(parts[2])
			if convErr != nil {
				http.Error(w, "bad version", http.StatusBadRequest)
				return
			}
			v, err = h.Registry.Get(name, num)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		etag := `"` + strconv.Itoa(v.Number) + `"`
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Model-Version", strconv.Itoa(v.Number))
		w.Header().Set("X-Model-Created", strconv.FormatInt(v.Created, 10))
		// Version short-circuit: pollers send the version they already hold
		// as If-None-Match so an unchanged model costs a header exchange, not
		// a snapshot download.
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(v.Data)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// MaxWait caps the server-side long-poll duration: a client asking for
// more gets this much. Bounded so an abandoned connection cannot park a
// handler goroutine forever past its client's patience.
const MaxWait = time.Minute

// parseWait reads the ?wait=<dur> long-poll parameter (0 when absent or
// malformed — old clients and plain polls behave exactly as before).
func parseWait(r *http.Request) time.Duration {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0
	}
	if d > MaxWait {
		d = MaxWait
	}
	return d
}

// serveVersions answers GET /versions with the name → latest-version map,
// honouring If-None-Match so an idle fleet of replicas costs header
// exchanges only. The ETag hashes the map itself (JSON sorts the names),
// not a commit counter: a primary that quarantined a torn tail and then
// published another name has as many commits as before but a different
// map. With ?wait=<dur> and a matching If-None-Match the handler parks
// until a publish changes the map (push-based invalidation: replicas see
// new versions in O(RTT), not O(interval)), answering 304 only when the
// wait expires with nothing new.
func (h *Handler) serveVersions(w http.ResponseWriter, r *http.Request) {
	deadline := time.Now().Add(parseWait(r))
	inm := r.Header.Get("If-None-Match")
	for {
		updated := h.Registry.Updated() // grab BEFORE reading, see Updated
		// A map[string]int always encodes, with its names sorted.
		body, _ := json.Marshal(h.Registry.latestNumbers())
		sum := fnv.New64a()
		sum.Write(body)
		etag := `"` + strconv.FormatUint(sum.Sum64(), 16) + `"`
		w.Header().Set("ETag", etag)
		if inm == "" || inm != etag {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		select {
		case <-updated:
		case <-time.After(remaining):
		case <-r.Context().Done():
			return
		}
	}
}

// Client talks to a model server.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Publish uploads a snapshot and returns the assigned version number.
func (c *Client) Publish(name string, snap *nn.Snapshot) (int, error) {
	data, err := snap.Bytes()
	if err != nil {
		return 0, err
	}
	resp, err := c.httpClient().Post(c.BaseURL+"/models/"+name, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("modelserver: publish status %d: %s", resp.StatusCode, body)
	}
	return strconv.Atoi(strings.TrimSpace(string(body)))
}

// FetchLatest downloads the newest snapshot of the named model.
func (c *Client) FetchLatest(name string) (*nn.Snapshot, int, error) {
	snap, ver, _, err := c.FetchLatestIfNewerWait(name, 0, 0)
	return snap, ver, err
}

// FetchLatestIfNewerWait downloads the newest snapshot only when its
// version differs from have (the version the caller already holds). It
// returns changed=false with a nil snapshot when the server still serves
// version have; have=0 always downloads. When wait > 0 and the caller
// already holds a version, the request asks the server to park until a
// newer version lands (or wait expires into the usual 304). Servers that
// predate ?wait ignore the parameter and answer immediately — the
// plain-poll fallback.
func (c *Client) FetchLatestIfNewerWait(name string, have int, wait time.Duration) (snap *nn.Snapshot, ver int, changed bool, err error) {
	url := c.BaseURL + "/models/" + name + "/latest"
	if wait > 0 && have > 0 {
		url += "?wait=" + wait.String()
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, false, err
	}
	if have > 0 {
		req.Header.Set("If-None-Match", `"`+strconv.Itoa(have)+`"`)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, have, false, nil
	case http.StatusOK:
	default:
		return nil, 0, false, fmt.Errorf("modelserver: fetch status %d", resp.StatusCode)
	}
	snap, err = nn.DecodeSnapshot(resp.Body)
	if err != nil {
		return nil, 0, false, err
	}
	ver, _ = strconv.Atoi(resp.Header.Get("X-Model-Version"))
	return snap, ver, true, nil
}

// FetchVersion downloads one specific version verbatim — raw snapshot bytes
// plus registry metadata — so a replica can mirror it without a decode →
// re-encode round trip.
func (c *Client) FetchVersion(name string, number int) (Version, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/models/" + name + "/" + strconv.Itoa(number))
	if err != nil {
		return Version{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Version{}, fmt.Errorf("modelserver: fetch %s v%d status %d", name, number, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return Version{}, err
	}
	created, _ := strconv.ParseInt(resp.Header.Get("X-Model-Created"), 10, 64)
	return Version{Name: name, Number: number, Data: data, Created: created}, nil
}

// FetchVersions polls GET /versions for the name → latest-version map.
// haveETag is the tag from the previous poll ("" on the first); when the
// server's map still matches it, changed is false and only headers crossed
// the wire. With wait > 0 and a haveETag the server parks the request until
// the map changes or wait expires (see FetchLatestIfNewerWait); the
// caller's HTTP client timeout must exceed wait.
func (c *Client) FetchVersions(haveETag string, wait time.Duration) (latest map[string]int, etag string, changed bool, err error) {
	url := c.BaseURL + "/versions"
	if wait > 0 && haveETag != "" {
		url += "?wait=" + wait.String()
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, "", false, err
	}
	if haveETag != "" {
		req.Header.Set("If-None-Match", haveETag)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, haveETag, false, nil
	case http.StatusOK:
	default:
		return nil, "", false, fmt.Errorf("modelserver: versions status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&latest); err != nil {
		return nil, "", false, fmt.Errorf("modelserver: decode versions: %w", err)
	}
	return latest, resp.Header.Get("ETag"), true, nil
}
