package alarmstore

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"env2vec/internal/anomaly"
)

func demoAlarm(chain string, start int) anomaly.Alarm {
	return anomaly.Alarm{
		Detector: "env2vec", ChainID: chain, Testbed: "tb1", Build: "S05",
		StartIdx: start, EndIdx: start + 2, PeakDev: 7.5,
	}
}

func TestPushFindMemory(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Push(demoAlarm("c1", 5), 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := s.Push(demoAlarm("c2", 9), 2000)
	if r1.ID != 1 || r2.ID != 2 {
		t.Fatalf("ids not sequential: %d %d", r1.ID, r2.ID)
	}
	if len(s.records) != 2 {
		t.Fatalf("Len = %d", len(s.records))
	}
	if got := s.Find(Query{ChainID: "c1"}); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("chain query wrong: %+v", got)
	}
	if got := s.Find(Query{From: 1500}); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("from query wrong: %+v", got)
	}
	if got := s.Find(Query{To: 1500}); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("to query wrong: %+v", got)
	}
	if got := s.Find(Query{Detector: "other"}); len(got) != 0 {
		t.Fatalf("detector query wrong")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alarms.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = s.Push(demoAlarm("c1", 0), 10)
	_, _ = s.Push(demoAlarm("c2", 1), 20)

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.records) != 2 {
		t.Fatalf("reloaded %d records", len(re.records))
	}
	r3, _ := re.Push(demoAlarm("c3", 2), 30)
	if r3.ID != 3 {
		t.Fatalf("id sequence not restored: %d", r3.ID)
	}
}

// A crash mid-Push leaves the last record without its newline. Open drops
// that torn line and keeps the rest; the next Push reuses its id.
func TestOpenAfterTornPush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alarms.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Push(demoAlarm("c1", i), int64(10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	third := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if err := os.WriteFile(path, data[:third+(len(data)-third)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after a torn push: %v", err)
	}
	if len(re.records) != 2 {
		t.Fatalf("reopened %d records, want 2", len(re.records))
	}
	rec, err := re.Push(demoAlarm("c2", 7), 40)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != 3 {
		t.Fatalf("push after reopen got id %d, want 3", rec.ID)
	}
	again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Find(Query{}); len(got) != 3 || got[2].Alarm.ChainID != "c2" || got[2].ID != 3 {
		t.Fatalf("second reopen: %+v", got)
	}
}

func TestOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{notjson\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatalf("corrupt file should error")
	}
	// A corrupt complete line is refused even when a torn line follows it.
	if err := os.WriteFile(path, []byte("{notjson\n{\"id\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatalf("corrupt line before a torn one should error")
	}
}

func TestHTTPHandler(t *testing.T) {
	s, _ := Open("")
	h := &Handler{Store: s, Now: func() int64 { return 42 }}
	srv := httptest.NewServer(h)
	defer srv.Close()

	body, _ := json.Marshal(demoAlarm("c9", 3))
	resp, err := http.Post(srv.URL+"/alarms", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post status %d", resp.StatusCode)
	}
	var rec Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.CreatedAt != 42 || rec.Alarm.ChainID != "c9" {
		t.Fatalf("record wrong: %+v", rec)
	}

	get, err := http.Get(srv.URL + "/alarms?chain=c9")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var recs []Record
	if err := json.NewDecoder(get.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}

	// Bad body → 400.
	bad, _ := http.Post(srv.URL+"/alarms", "application/json", bytes.NewBufferString("{"))
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", bad.StatusCode)
	}
	// Wrong path → 404; wrong method → 405.
	nf, _ := http.Get(srv.URL + "/other")
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("not-found status %d", nf.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/alarms", nil)
	del, _ := http.DefaultClient.Do(req)
	del.Body.Close()
	if del.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("method status %d", del.StatusCode)
	}
}

func TestHTTPTimeRangeAndJSONErrors(t *testing.T) {
	s, _ := Open("")
	_, _ = s.Push(demoAlarm("c1", 0), 100)
	_, _ = s.Push(demoAlarm("c1", 1), 200)
	_, _ = s.Push(demoAlarm("c1", 2), 300)
	srv := httptest.NewServer(&Handler{Store: s, Now: func() int64 { return 42 }})
	defer srv.Close()

	// from/to narrow the result set; previously both were silently ignored.
	get, err := http.Get(srv.URL + "/alarms?from=150&to=250")
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := json.NewDecoder(get.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if len(recs) != 1 || recs[0].CreatedAt != 200 {
		t.Fatalf("time-range query wrong: %+v", recs)
	}

	// A malformed bound is a JSON-shaped 400, not a plain-text page.
	bad, err := http.Get(srv.URL + "/alarms?from=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	var errBody map[string]string
	if err := json.NewDecoder(bad.Body).Decode(&errBody); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest || errBody["error"] == "" {
		t.Fatalf("bad bound: %d %v", bad.StatusCode, errBody)
	}
	if ct := bad.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content type %q", ct)
	}
}

func TestHTTPDefaultNowStampsWallClock(t *testing.T) {
	s, _ := Open("")
	srv := httptest.NewServer(&Handler{Store: s}) // no Now override
	defer srv.Close()
	body, _ := json.Marshal(demoAlarm("c1", 0))
	before := time.Now().Unix()
	resp, err := http.Post(srv.URL+"/alarms", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.CreatedAt < before || rec.CreatedAt > time.Now().Unix() {
		t.Fatalf("CreatedAt %d not stamped from the wall clock", rec.CreatedAt)
	}
}

// TestConcurrentAppendAndQuery hammers Push, Find, and the HTTP surface in
// parallel; run with -race this proves the store's locking holds up under
// the async alarm pipeline plus engineers querying at the same time.
func TestConcurrentAppendAndQuery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alarms.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&Handler{Store: s})
	defer srv.Close()

	const writers, queriers, perWriter = 4, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Push(demoAlarm("c1", i), int64(w*1000+i)); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = s.Find(Query{ChainID: "c1"})
				resp, err := http.Get(srv.URL + "/alarms?chain=c1&from=0")
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if len(s.records) != writers*perWriter {
		t.Fatalf("stored %d alarms, want %d", len(s.records), writers*perWriter)
	}
	ids := map[int]bool{}
	for _, rec := range s.Find(Query{}) {
		if ids[rec.ID] {
			t.Fatalf("duplicate id %d under concurrency", rec.ID)
		}
		ids[rec.ID] = true
	}
	// The file survives a reload with every record intact.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.records) != writers*perWriter {
		t.Fatalf("reloaded %d records, want %d", len(re.records), writers*perWriter)
	}
}

// TestSourceFilter: SLO alerts and model-drift alarms share one store but
// stay separable through the source field — in Find and over HTTP.
func TestSourceFilter(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	drift := demoAlarm("c1", 5) // no Source set: the original drift producer
	slo := demoAlarm("slo-rule", 0)
	slo.Source = "slo"
	slo.Detector = "slo:AvailabilityFastBurn"
	if _, err := s.Push(drift, 1000); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Push(slo, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Source != "slo" {
		t.Fatalf("slo record source = %q", rec.Source)
	}
	if got := s.Find(Query{Source: "drift"}); len(got) != 1 || got[0].Source != "drift" {
		t.Fatalf("drift filter wrong: %+v", got)
	}
	if got := s.Find(Query{Source: "slo"}); len(got) != 1 || got[0].Alarm.Detector != "slo:AvailabilityFastBurn" {
		t.Fatalf("slo filter wrong: %+v", got)
	}
	if got := s.Find(Query{}); len(got) != 2 {
		t.Fatalf("unfiltered should see both: %+v", got)
	}

	// Rows persisted before the field existed load with an empty Source and
	// still answer ?source=drift.
	legacy := Record{ID: 99, CreatedAt: 50, Alarm: demoAlarm("old", 1)}
	s.records = append(s.records, legacy)
	if got := s.Find(Query{Source: "drift"}); len(got) != 2 {
		t.Fatalf("legacy record not treated as drift: %+v", got)
	}

	srv := httptest.NewServer(&Handler{Store: s, Now: func() int64 { return 7 }})
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/alarms?source=slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Source != "slo" {
		t.Fatalf("?source=slo returned %+v", recs)
	}
}
