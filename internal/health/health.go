// Package health is the heartbeat loop that turns dpcd's ring from
// manually-administered membership (POST /v1/ring) into a self-healing
// one: every instance probes its configured peers on an interval, walks
// each peer through an alive → suspect → dead state machine, and reports
// live-set changes to the serving layer, which rebuilds its ring and
// reconciles resident state — evicting a dead shard's arcs or warm-
// loading a returning one's — without an operator in the loop.
//
// The monitor is deliberately dumb about what a probe means: it is given
// a probe function (HTTPProbe builds the standard GET /healthz one), a
// peer-list source it re-reads every tick (so a manual membership post
// changes what is probed without restarting the loop), and a change
// callback. Suspect is a damping state, not a membership state — one
// missed heartbeat on a loaded box must not trigger an eviction-and-
// reload cycle, so only Dead (DeadAfter consecutive misses) removes a
// peer from the live set, and a single successful probe restores it.
package health

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// State is one peer's position in the failure-detection state machine.
type State int

const (
	// Alive: the last probe succeeded (or the peer is new and has the
	// benefit of the doubt).
	Alive State = iota
	// Suspect: at least SuspectAfter consecutive probes failed; the peer
	// is still in the live set but on notice.
	Suspect
	// Dead: at least DeadAfter consecutive probes failed; the peer is
	// removed from the live set until a probe succeeds again.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config tunes a Monitor. The zero value of every field picks a usable
// default, but Self must be set: it is never probed and always live (an
// instance that cannot reach itself still serves what it holds).
type Config struct {
	// Self is this instance's own peer address.
	Self string
	// Interval is the probe period; <= 0 means 1s.
	Interval time.Duration
	// Timeout bounds one probe; <= 0 means Interval (a probe slower than
	// the period is as good as failed).
	Timeout time.Duration
	// SuspectAfter is the consecutive-failure count that marks a peer
	// suspect; <= 0 means 1.
	SuspectAfter int
	// DeadAfter is the consecutive-failure count that evicts a peer from
	// the live set; <= 0 means 3. It must be >= SuspectAfter.
	DeadAfter int
}

func (c Config) interval() time.Duration {
	if c.Interval > 0 {
		return c.Interval
	}
	return time.Second
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return c.interval()
}

func (c Config) suspectAfter() int {
	if c.SuspectAfter > 0 {
		return c.SuspectAfter
	}
	return 1
}

func (c Config) deadAfter() int {
	d := c.DeadAfter
	if d <= 0 {
		d = 3
	}
	if s := c.suspectAfter(); d < s {
		d = s
	}
	return d
}

// PeerStatus is one peer's snapshot for diagnostics (/v1/ring).
type PeerStatus struct {
	Peer  string `json:"peer"`
	State string `json:"state"`
	Fails int    `json:"fails"`
}

// Monitor drives the heartbeat loop. Construct with New, then either
// Start a background loop or call Tick directly (tests drive the state
// machine deterministically that way).
type Monitor struct {
	cfg      Config
	peers    func() []string
	probe    func(ctx context.Context, peer string) error
	onChange func(live []string)

	mu     sync.Mutex
	states map[string]*peerState

	startMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

type peerState struct {
	state State
	fails int
}

// New builds a monitor. peers returns the full configured peer set
// (self included or not — self is skipped either way) and is re-read
// every tick; probe checks one peer within ctx; onChange receives the
// new live set (self plus every configured non-dead peer, sorted)
// whenever it differs from the previous one. onChange runs on the tick
// goroutine with no monitor lock held, so it may take its time (a ring
// reconcile) without stalling state reads.
func New(cfg Config, peers func() []string, probe func(ctx context.Context, peer string) error, onChange func(live []string)) *Monitor {
	return &Monitor{
		cfg:      cfg,
		peers:    peers,
		probe:    probe,
		onChange: onChange,
		states:   make(map[string]*peerState),
	}
}

// HTTPProbe returns the standard probe: GET <peer>/healthz with any 2xx
// answer counting as alive. client may be nil for http.DefaultClient;
// the per-probe deadline comes from the monitor's Timeout via ctx, so
// the client needs no timeout of its own.
func HTTPProbe(client *http.Client) func(ctx context.Context, peer string) error {
	if client == nil {
		client = http.DefaultClient
	}
	return func(ctx context.Context, peer string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return fmt.Errorf("health: %s answered HTTP %d", peer, resp.StatusCode)
		}
		return nil
	}
}

// Start launches the background loop: one Tick per Interval until Stop.
// Calling Start twice without Stop is a no-op.
func (m *Monitor) Start() {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(m.cfg.interval())
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.Tick(context.Background())
			}
		}
	}(m.stop, m.done)
}

// Stop halts the background loop and waits for the in-flight tick, if
// any, to finish. Safe to call without Start.
func (m *Monitor) Stop() {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop, m.done = nil, nil
}

// Tick runs one probe round: every configured peer (except self) is
// probed concurrently under the per-probe timeout, states advance, and
// onChange fires if the live set changed. It reports whether it did.
// Ticks are safe to run concurrently with Status/Live but are intended
// to be sequential; the background loop never overlaps them.
func (m *Monitor) Tick(ctx context.Context) bool {
	peers := m.currentPeers()
	results := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.cfg.timeout())
			defer cancel()
			results[i] = m.probe(pctx, p)
		}(i, p)
	}
	wg.Wait()

	m.mu.Lock()
	// Drop state for peers no longer configured, so a peer removed by a
	// manual membership post doesn't keep a stale verdict around for its
	// possible return.
	configured := make(map[string]bool, len(peers))
	for _, p := range peers {
		configured[p] = true
	}
	for p := range m.states {
		if !configured[p] {
			delete(m.states, p)
		}
	}
	changed := false
	for i, p := range peers {
		st, ok := m.states[p]
		if !ok {
			// New peers start alive: a just-posted membership change must
			// not evict the newcomer before its first heartbeat.
			st = &peerState{state: Alive}
			m.states[p] = st
		}
		if results[i] == nil {
			if st.state == Dead {
				changed = true
			}
			st.state, st.fails = Alive, 0
			continue
		}
		st.fails++
		switch {
		case st.fails >= m.cfg.deadAfter():
			if st.state != Dead {
				changed = true
			}
			st.state = Dead
		case st.fails >= m.cfg.suspectAfter():
			if st.state == Dead {
				// Cannot happen while fails < deadAfter, but keep the
				// invariant local: leaving Dead always changes the live set.
				changed = true
			}
			st.state = Suspect
		}
	}
	live := m.liveLocked(peers)
	m.mu.Unlock()

	if changed && m.onChange != nil {
		m.onChange(live)
	}
	return changed
}

// currentPeers reads the configured peer set, minus self, deduplicated.
func (m *Monitor) currentPeers() []string {
	seen := map[string]bool{m.cfg.Self: true}
	var out []string
	for _, p := range m.peers() {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// liveLocked assembles the live set: self plus every configured peer not
// currently Dead, sorted for determinism.
func (m *Monitor) liveLocked(peers []string) []string {
	live := []string{m.cfg.Self}
	for _, p := range peers {
		if st, ok := m.states[p]; !ok || st.state != Dead {
			live = append(live, p)
		}
	}
	sort.Strings(live)
	return live
}

// Status returns a diagnostic snapshot of every probed peer, sorted by
// address. Self is not listed — it is axiomatically alive.
func (m *Monitor) Status() []PeerStatus {
	peers := m.currentPeers()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(peers))
	for _, p := range peers {
		st, ok := m.states[p]
		if !ok {
			st = &peerState{state: Alive}
		}
		out = append(out, PeerStatus{Peer: p, State: st.state.String(), Fails: st.fails})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Peer < out[b].Peer })
	return out
}
