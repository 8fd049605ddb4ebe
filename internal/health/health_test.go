package health

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeProbe lets tests script per-peer probe outcomes and flip them
// between ticks.
type fakeProbe struct {
	mu   sync.Mutex
	down map[string]bool
}

func newFakeProbe() *fakeProbe { return &fakeProbe{down: make(map[string]bool)} }

func (f *fakeProbe) set(peer string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[peer] = down
}

func (f *fakeProbe) probe(_ context.Context, peer string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[peer] {
		return errors.New("down")
	}
	return nil
}

type liveRecorder struct {
	mu    sync.Mutex
	calls [][]string
}

func (r *liveRecorder) onChange(live []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, append([]string(nil), live...))
}

func (r *liveRecorder) last() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.calls) == 0 {
		return nil
	}
	return r.calls[len(r.calls)-1]
}

func (r *liveRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.calls)
}

func staticPeers(peers ...string) func() []string {
	return func() []string { return peers }
}

// live is the monitor's current live set (self included, sorted): the
// set Tick hands to onChange when it changes.
func live(m *Monitor) []string {
	peers := m.currentPeers()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveLocked(peers)
}

// TestSuspectDoesNotEvict: with DeadAfter=3 a peer that misses one or
// two heartbeats goes suspect but stays in the live set — the damping
// that keeps a loaded shard from triggering eviction/reload churn.
func TestSuspectDoesNotEvict(t *testing.T) {
	fp := newFakeProbe()
	rec := &liveRecorder{}
	m := New(Config{Self: "self", DeadAfter: 3}, staticPeers("a", "b"), fp.probe, rec.onChange)

	fp.set("a", true)
	for i := 0; i < 2; i++ {
		if m.Tick(context.Background()) {
			t.Fatalf("tick %d reported a live-set change while peer is only suspect", i+1)
		}
	}
	st := m.Status()
	if st[0].Peer != "a" || st[0].State != "suspect" || st[0].Fails != 2 {
		t.Fatalf("peer a status = %+v, want suspect with 2 fails", st[0])
	}
	if got, want := live(m), []string{"a", "b", "self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Live() = %v, want %v (suspect peers stay live)", got, want)
	}
	if rec.count() != 0 {
		t.Fatalf("onChange fired %d times before any eviction", rec.count())
	}
}

// TestDeadAfterEvicts: the third consecutive miss crosses DeadAfter,
// fires onChange exactly once with the reduced live set, and further
// misses stay quiet.
func TestDeadAfterEvicts(t *testing.T) {
	fp := newFakeProbe()
	rec := &liveRecorder{}
	m := New(Config{Self: "self", DeadAfter: 3}, staticPeers("a", "b"), fp.probe, rec.onChange)

	fp.set("a", true)
	m.Tick(context.Background())
	m.Tick(context.Background())
	if !m.Tick(context.Background()) {
		t.Fatal("third consecutive miss did not change the live set")
	}
	if got, want := rec.last(), []string{"b", "self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("onChange live = %v, want %v", got, want)
	}
	if rec.count() != 1 {
		t.Fatalf("onChange fired %d times, want 1", rec.count())
	}
	if m.Tick(context.Background()) {
		t.Fatal("already-dead peer changed the live set again")
	}
	if rec.count() != 1 {
		t.Fatalf("onChange re-fired for an already-dead peer (%d calls)", rec.count())
	}
}

// TestRecoveryReAdds: one successful probe resurrects a dead peer and
// fires onChange with the restored live set.
func TestRecoveryReAdds(t *testing.T) {
	fp := newFakeProbe()
	rec := &liveRecorder{}
	m := New(Config{Self: "self", DeadAfter: 2}, staticPeers("a"), fp.probe, rec.onChange)

	fp.set("a", true)
	m.Tick(context.Background())
	m.Tick(context.Background())
	if got, want := rec.last(), []string{"self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after death live = %v, want %v", got, want)
	}

	fp.set("a", false)
	if !m.Tick(context.Background()) {
		t.Fatal("recovery probe did not change the live set")
	}
	if got, want := rec.last(), []string{"a", "self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after recovery live = %v, want %v", got, want)
	}
	st := m.Status()
	if st[0].State != "alive" || st[0].Fails != 0 {
		t.Fatalf("recovered peer status = %+v, want alive/0", st[0])
	}
}

// TestPeerSetChanges: the peer source is re-read every tick — a removed
// peer drops its state (so a later return starts fresh and alive), and
// an added peer starts alive without waiting for a probe.
func TestPeerSetChanges(t *testing.T) {
	fp := newFakeProbe()
	var mu sync.Mutex
	peers := []string{"a", "b"}
	m := New(Config{Self: "self", DeadAfter: 1}, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), peers...)
	}, fp.probe, nil)

	fp.set("a", true)
	m.Tick(context.Background()) // a dies (DeadAfter=1)
	if got, want := live(m), []string{"b", "self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Live() = %v, want %v", got, want)
	}

	mu.Lock()
	peers = []string{"b", "c"} // drop a, add c
	mu.Unlock()
	fp.set("a", false)
	m.Tick(context.Background())
	if got, want := live(m), []string{"b", "c", "self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Live() after reconfigure = %v, want %v", got, want)
	}

	// a returns to the config: its dead verdict must not have survived.
	mu.Lock()
	peers = []string{"a", "b", "c"}
	mu.Unlock()
	if got, want := live(m), []string{"a", "b", "c", "self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Live() with returned peer = %v, want %v (fresh peers start alive)", got, want)
	}
}

// TestSelfNeverProbed: self is filtered out of the probe set even when
// the peer source lists it, and is always in the live set.
func TestSelfNeverProbed(t *testing.T) {
	probed := make(map[string]int)
	var mu sync.Mutex
	m := New(Config{Self: "self", DeadAfter: 1}, staticPeers("self", "a"), func(_ context.Context, p string) error {
		mu.Lock()
		probed[p]++
		mu.Unlock()
		return errors.New("down")
	}, nil)
	m.Tick(context.Background())
	if probed["self"] != 0 {
		t.Fatal("self was probed")
	}
	if probed["a"] != 1 {
		t.Fatalf("peer a probed %d times, want 1", probed["a"])
	}
	if got, want := live(m), []string{"self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Live() = %v, want self always present: %v", got, want)
	}
}

// TestConfigDefaults pins the documented zero-value behavior.
func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.interval() != time.Second {
		t.Errorf("default interval = %v, want 1s", c.interval())
	}
	if c.timeout() != time.Second {
		t.Errorf("default timeout = %v, want interval", c.timeout())
	}
	if c.suspectAfter() != 1 {
		t.Errorf("default suspectAfter = %d, want 1", c.suspectAfter())
	}
	if c.deadAfter() != 3 {
		t.Errorf("default deadAfter = %d, want 3", c.deadAfter())
	}
	c = Config{SuspectAfter: 5, DeadAfter: 2}
	if c.deadAfter() != 5 {
		t.Errorf("deadAfter below suspectAfter not clamped: %d", c.deadAfter())
	}
}

// TestHTTPProbe exercises the standard probe against a real listener:
// 2xx passes, 5xx fails, a dead address fails, and the ctx deadline
// bounds a hung server.
func TestHTTPProbe(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s, want /healthz", r.URL.Path)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	probe := HTTPProbe(srv.Client())
	if err := probe(context.Background(), srv.URL); err != nil {
		t.Fatalf("probe of healthy server failed: %v", err)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	if err := HTTPProbe(bad.Client())(context.Background(), bad.URL); err == nil {
		t.Fatal("probe of 500-ing server succeeded")
	}

	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	if err := HTTPProbe(nil)(context.Background(), deadURL); err == nil {
		t.Fatal("probe of closed server succeeded")
	}

	hung := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer hung.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := HTTPProbe(hung.Client())(ctx, hung.URL); err == nil {
		t.Fatal("probe of hung server beat its deadline")
	}
}

// TestStartStop: the background loop ticks on its own and Stop is
// idempotent and race-free with an in-flight tick.
func TestStartStop(t *testing.T) {
	fp := newFakeProbe()
	fp.set("a", true)
	rec := &liveRecorder{}
	m := New(Config{Self: "self", Interval: 5 * time.Millisecond, DeadAfter: 2}, staticPeers("a"), fp.probe, rec.onChange)
	m.Start()
	m.Start() // no-op
	deadline := time.Now().Add(2 * time.Second)
	for rec.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	m.Stop() // no-op
	if rec.count() == 0 {
		t.Fatal("background loop never evicted the dead peer")
	}
	if got, want := rec.last(), []string{"self"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live = %v, want %v", got, want)
	}
}

// TestConcurrentTickAndReads runs Tick against Status/Live readers to
// give the race detector something to chew on.
func TestConcurrentTickAndReads(t *testing.T) {
	fp := newFakeProbe()
	peers := make([]string, 8)
	for i := range peers {
		peers[i] = fmt.Sprintf("peer-%d", i)
	}
	m := New(Config{Self: "self", DeadAfter: 2}, staticPeers(peers...), fp.probe, func([]string) {})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fp.set(peers[i%len(peers)], i%3 == 0)
			m.Tick(context.Background())
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_ = m.Status()
				_ = live(m)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
