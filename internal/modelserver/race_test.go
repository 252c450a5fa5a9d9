package modelserver

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentPublishGetReplicate is the registry's -race battery:
// many goroutines hammer Publish/Latest/Get/Names across many model names
// while a replica syncs mid-publish. Afterwards every publish must be
// accounted for — per-name version numbers form exactly 1..N (monotonic,
// no losses, no duplicates) — and a final sync leaves the replica
// bit-identical to the primary.
func TestConcurrentPublishGetReplicate(t *testing.T) {
	const (
		models     = 8
		publishers = 4 // per model
		perPub     = 6 // versions per publisher
	)
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "durable"}[durable], func(t *testing.T) {
			var primary *Registry
			var err error
			if durable {
				primary, err = OpenRegistry(WithDir(t.TempDir()))
			} else {
				primary, err = OpenRegistry()
			}
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			srv := httptest.NewServer(&Handler{Registry: primary})
			defer srv.Close()
			replicaReg := NewRegistry()
			replica := &Replica{Client: &Client{BaseURL: srv.URL}, Registry: replicaReg}

			names := make([]string, models)
			for i := range names {
				names[i] = fmt.Sprintf("model-%02d", i)
			}

			numbers := make([][]int, models) // versions each model's publishers got back
			var numbersMu sync.Mutex
			done := make(chan struct{})

			var writers sync.WaitGroup
			for mi, name := range names {
				for p := 0; p < publishers; p++ {
					writers.Add(1)
					go func(mi int, name string, seed int64) {
						defer writers.Done()
						for v := 0; v < perPub; v++ {
							n, err := primary.Publish(name, demoSnapshot(seed+int64(v)), seed)
							if err != nil {
								t.Errorf("publish %s: %v", name, err)
								return
							}
							numbersMu.Lock()
							numbers[mi] = append(numbers[mi], n)
							numbersMu.Unlock()
						}
					}(mi, name, int64(mi*100+p))
				}
			}

			// Readers and a mid-publish replica syncer run until writers stop.
			var readers sync.WaitGroup
			for g := 0; g < 4; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						name := names[(g+i)%models]
						if v, err := primary.Latest(name); err == nil {
							if v.Number < 1 || v.Number > publishers*perPub {
								t.Errorf("latest %s: impossible version %d", name, v.Number)
								return
							}
							if _, err := primary.Get(name, v.Number); err != nil {
								t.Errorf("get %s v%d vanished: %v", name, v.Number, err)
								return
							}
						}
						if got := primary.Names(); len(got) > models {
							t.Errorf("names grew to %v", got)
							return
						}
					}
				}(g)
			}
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := replica.Sync(); err != nil {
						t.Errorf("mid-publish sync: %v", err)
						return
					}
				}
			}()

			writers.Wait()
			close(done)
			readers.Wait()

			// No lost publishes: each model's returned numbers are exactly a
			// permutation of 1..publishers*perPub.
			for mi, name := range names {
				got := append([]int(nil), numbers[mi]...)
				sort.Ints(got)
				if len(got) != publishers*perPub {
					t.Fatalf("%s: %d publishes recorded, want %d", name, len(got), publishers*perPub)
				}
				for i, n := range got {
					if n != i+1 {
						t.Fatalf("%s: version sequence %v is not 1..%d", name, got, publishers*perPub)
					}
				}
				if v, err := primary.Latest(name); err != nil || v.Number != publishers*perPub {
					t.Fatalf("%s latest: %+v %v", name, v.Number, err)
				}
			}

			// The replica converges exactly once the publishing stops.
			if _, err := replica.Sync(); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				for v := 1; v <= publishers*perPub; v++ {
					p, err1 := primary.Get(name, v)
					r, err2 := replicaReg.Get(name, v)
					if err1 != nil || err2 != nil || !bytes.Equal(p.Data, r.Data) || p.Created != r.Created {
						t.Fatalf("replica diverges at %s v%d: %v %v", name, v, err1, err2)
					}
				}
			}
		})
	}
}
