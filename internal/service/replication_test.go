package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/data"
	"repro/internal/persist"
)

// countResidents returns how many shards hold name in their registry.
func (h *ringHarness) countResidents(name string) int {
	n := 0
	for _, s := range h.svcs {
		if _, ok := s.Dataset(name); ok {
			n++
		}
	}
	return n
}

func (h *ringHarness) totalMisses() int64 {
	var n int64
	for _, s := range h.svcs {
		n += s.Stats().CacheMisses
	}
	return n
}

// TestReplicatedWritePath: with rf=2 every upload and fit lands on
// exactly two shards — the primary serving the write plus the replica it
// ships snapshots to — and the replica's copy is installed state, not a
// refit.
func TestReplicatedWritePath(t *testing.T) {
	corpus := testCorpus(t, 6)
	h := startRingRF(t, 3, 2, nil)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
		if _, err := h.clients[0].Fit(api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range corpus {
		if got := h.countResidents(e.name); got != 2 {
			t.Errorf("dataset %s resident on %d shards, want rf=2", e.name, got)
		}
	}
	// Each fresh fit ran exactly once ring-wide; the replica copies are
	// installs, visible in the replication counters, not in cache misses.
	if misses := h.totalMisses(); misses != int64(len(corpus)) {
		t.Errorf("ring performed %d fits for %d datasets; replication must not refit", misses, len(corpus))
	}
	var dsRepl, mRepl int64
	for _, s := range h.svcs {
		st := s.Stats()
		dsRepl += st.DatasetsReplicated
		mRepl += st.ModelsReplicated
	}
	if dsRepl != int64(len(corpus)) || mRepl != int64(len(corpus)) {
		t.Errorf("replica installs = %d datasets / %d models, want %d/%d",
			dsRepl, mRepl, len(corpus), len(corpus))
	}
	// The merged dataset listing deduplicates replicas: one entry per name.
	infos, err := h.clients[0].RingStats()
	if err != nil {
		t.Fatal(err)
	}
	if infos.Total.Datasets != 2*len(corpus) {
		t.Errorf("aggregate datasets = %d, want %d (each name on two shards)", infos.Total.Datasets, 2*len(corpus))
	}
	if infos.RF != 2 {
		t.Errorf("aggregate rf = %d, want 2", infos.RF)
	}
	var listed []api.DatasetInfo
	if err := h.clients[0].call(http.MethodGet, "/v1/datasets", "", nil, false, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(corpus) {
		t.Errorf("merged listing has %d entries, want %d deduplicated names", len(listed), len(corpus))
	}
}

// TestReplicatedAssignAnyReplica: assigns for a key answer byte-identical
// through every shard — primary, replica, and non-owner alike — and all
// of them serve from warm models.
func TestReplicatedAssignAnyReplica(t *testing.T) {
	corpus := testCorpus(t, 6)
	h := startRingRF(t, 3, 2, nil)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
		if _, err := h.clients[1].Fit(api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params}); err != nil {
			t.Fatal(err)
		}
	}
	missesBefore := h.totalMisses()
	for _, e := range corpus {
		req := marshal(api.AssignRequest{
			FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
			Points:     e.probes,
		})
		wantStatus, want := rawPost(t, h.addrs[0]+"/v1/assign", req)
		if wantStatus != http.StatusOK {
			t.Fatalf("assign %s via shard 0: HTTP %d: %s", e.name, wantStatus, want)
		}
		for i := 1; i < len(h.addrs); i++ {
			gotStatus, got := rawPost(t, h.addrs[i]+"/v1/assign", req)
			if gotStatus != wantStatus || !bytes.Equal(got, want) {
				t.Errorf("assign %s via shard %d: HTTP %d %q, want HTTP %d %q",
					e.name, i, gotStatus, got, wantStatus, want)
			}
		}
	}
	if misses := h.totalMisses(); misses != missesBefore {
		t.Errorf("assigns through replicas refit %d models; want zero", misses-missesBefore)
	}
}

// TestReplicaFailoverZeroRefit is the tentpole contract in-process: with
// rf=2, killing a shard and evicting it from the live ring (as the
// heartbeat would) leaves every key serving byte-identically from its
// surviving replica — warm cache, zero refits, no 404s — without any
// snapshot store involved.
func TestReplicaFailoverZeroRefit(t *testing.T) {
	corpus := testCorpus(t, 6)
	h := startRingRF(t, 3, 2, nil)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
		if _, err := h.clients[0].Fit(api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params}); err != nil {
			t.Fatal(err)
		}
	}
	// Reference answers from the healthy ring, via shard 0.
	type ref struct {
		status int
		body   []byte
	}
	want := map[string]ref{}
	for _, e := range corpus {
		req := marshal(api.AssignRequest{
			FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
			Points:     e.probes,
		})
		status, body := rawPost(t, h.addrs[0]+"/v1/assign", req)
		if status != http.StatusOK {
			t.Fatalf("healthy assign %s: HTTP %d: %s", e.name, status, body)
		}
		want[e.name] = ref{status, body}
	}

	// Kill the primary of the first dataset, so the failover below is
	// never vacuous.
	dead := 0
	for i, a := range h.addrs {
		if h.routers[i].owners(corpus[0].name)[0] == a {
			dead = i
		}
	}
	var alive []int
	for i := range h.addrs {
		if i != dead {
			alive = append(alive, i)
		}
	}
	missesBefore := h.svcs[alive[0]].Stats().CacheMisses + h.svcs[alive[1]].Stats().CacheMisses
	h.servers[dead].Close()

	// Heartbeat verdict: survivors drop the dead shard from their live
	// sets. SetLive, not SetMembers — the configured set is untouched.
	survivors := []string{h.addrs[alive[0]], h.addrs[alive[1]]}
	for _, i := range alive {
		h.routers[i].SetLive(survivors)
		if got := h.routers[i].LiveMembers(); len(got) != 2 {
			t.Fatalf("shard %d live set = %v after eviction", i, got)
		}
	}

	// Every key — the dead shard's included — answers byte-identically
	// via both survivors, from warm models.
	for _, e := range corpus {
		req := marshal(api.AssignRequest{
			FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
			Points:     e.probes,
		})
		for _, i := range alive {
			status, body := rawPost(t, h.addrs[i]+"/v1/assign", req)
			if status != want[e.name].status || !bytes.Equal(body, want[e.name].body) {
				t.Errorf("assign %s via survivor %d after failover: HTTP %d %q, want HTTP %d %q",
					e.name, i, status, body, want[e.name].status, want[e.name].body)
			}
		}
	}
	if misses := h.svcs[alive[0]].Stats().CacheMisses + h.svcs[alive[1]].Stats().CacheMisses; misses != missesBefore {
		t.Errorf("failover refit %d models; want zero", misses-missesBefore)
	}

	// The stats fan-out marks the dead shard unreachable without failing
	// or probing it.
	agg, err := h.clients[alive[0]].RingStats()
	if err != nil {
		t.Fatal(err)
	}
	if agg.PeersUp != 2 || len(agg.Down) != 1 || agg.Down[0] != h.addrs[dead] {
		t.Errorf("aggregate after failover: up=%d down=%v", agg.PeersUp, agg.Down)
	}
	marked := false
	for _, ps := range agg.PerPeer {
		if ps.Peer == h.addrs[dead] {
			marked = ps.Unreachable && ps.Stats == nil
		}
	}
	if !marked {
		t.Errorf("dead peer not marked unreachable in per-peer stats: %+v", agg.PerPeer)
	}
}

// TestSelfHealRestoresReplicationFactor: after a death shrinks a key's
// replica set to one live holder, the next membership change re-ships
// snapshots so the promoted survivor's keys regain a second replica —
// the ring heals back to rf without any writes.
func TestSelfHealRestoresReplicationFactor(t *testing.T) {
	corpus := testCorpus(t, 6)
	h := startRingRF(t, 3, 2, nil)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
		if _, err := h.clients[0].Fit(api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params}); err != nil {
			t.Fatal(err)
		}
	}
	dead := 0
	for i, a := range h.addrs {
		if h.routers[i].owners(corpus[0].name)[0] == a {
			dead = i
		}
	}
	var alive []int
	for i := range h.addrs {
		if i != dead {
			alive = append(alive, i)
		}
	}
	h.servers[dead].Close()
	survivors := []string{h.addrs[alive[0]], h.addrs[alive[1]]}
	for _, i := range alive {
		h.routers[i].SetLive(survivors)
	}
	// With only two live shards and rf=2, every key must now be resident
	// on both survivors: eviction promoted replicas, self-heal re-shipped
	// the promoted keys to their new secondaries.
	for _, e := range corpus {
		resident := 0
		for _, i := range alive {
			if _, ok := h.svcs[i].Dataset(e.name); ok {
				resident++
			}
		}
		if resident != 2 {
			t.Errorf("dataset %s resident on %d survivors after self-heal, want 2", e.name, resident)
		}
	}
	// And with warm models everywhere: zero refits on any subsequent
	// assign through either survivor.
	missesBefore := h.svcs[alive[0]].Stats().CacheMisses + h.svcs[alive[1]].Stats().CacheMisses
	for _, e := range corpus {
		for _, i := range alive {
			resp, err := h.clients[i].Assign(api.AssignRequest{
				FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
				Points:     e.probes,
			})
			if err != nil {
				t.Fatalf("assign %s via survivor %d: %v", e.name, i, err)
			}
			if !resp.CacheHit {
				t.Errorf("assign %s via survivor %d missed the cache after self-heal", e.name, i)
			}
		}
	}
	if misses := h.svcs[alive[0]].Stats().CacheMisses + h.svcs[alive[1]].Stats().CacheMisses; misses != missesBefore {
		t.Errorf("self-heal path refit %d models; want zero", misses-missesBefore)
	}
}

// TestInstallSnapshotSemantics pins the install state machine directly
// on one Service: fresh installs land, duplicates and stale versions
// no-op, models require their exact dataset version, and none of it
// touches the cache miss counter.
func TestInstallSnapshotSemantics(t *testing.T) {
	d := data.SSet(2, 400, 1)
	primary := New(Options{Workers: 1, CacheSize: 16})
	if _, err := primary.PutDataset("ds", d.Points); err != nil {
		t.Fatal(err)
	}
	params := coreParams(api.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin})
	if _, err := primary.Fit("ds", "Ex-DPC", params); err != nil {
		t.Fatal(err)
	}
	snaps := primary.ReplicationSnapshots("ds")
	if len(snaps) != 2 {
		t.Fatalf("primary exported %d snapshots, want dataset+model", len(snaps))
	}

	replica := New(Options{Workers: 1, CacheSize: 16})
	// Model before its dataset: refused, not silently dropped.
	if _, err := replica.InstallSnapshot(snaps[1]); err == nil {
		t.Fatal("model install without its dataset succeeded")
	}
	for i, raw := range snaps {
		res, err := replica.InstallSnapshot(raw)
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
		if !res.Installed {
			t.Fatalf("install %d reported a no-op on a fresh replica: %+v", i, res)
		}
	}
	// Idempotent re-ship: both become no-ops.
	for i, raw := range snaps {
		res, err := replica.InstallSnapshot(raw)
		if err != nil {
			t.Fatalf("re-install %d: %v", i, err)
		}
		if res.Installed {
			t.Fatalf("re-install %d was not a no-op: %+v", i, res)
		}
	}
	st := replica.Stats()
	if st.DatasetsReplicated != 1 || st.ModelsReplicated != 1 {
		t.Errorf("replica counters = %d/%d, want 1/1", st.DatasetsReplicated, st.ModelsReplicated)
	}
	if st.CacheMisses != 0 {
		t.Errorf("installs produced %d cache misses; they are warm-loads", st.CacheMisses)
	}
	// The installed model serves without fitting.
	fr, err := replica.Fit("ds", "Ex-DPC", params)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.CacheHit {
		t.Error("fit on the replica missed the installed model")
	}

	// A newer version on the replica wins over a stale ship.
	d2 := data.SSet(2, 500, 2)
	if _, err := replica.PutDataset("ds", d2.Points); err != nil {
		t.Fatal(err)
	}
	res, err := replica.InstallSnapshot(snaps[0])
	if err != nil {
		t.Fatalf("stale dataset ship errored: %v", err)
	}
	if res.Installed {
		t.Fatal("stale dataset ship replaced a newer resident version")
	}
	if _, err := replica.InstallSnapshot(snaps[1]); err == nil {
		t.Fatal("model ship for a replaced dataset version succeeded")
	}
	// Garbage is an error, not a panic.
	if _, err := replica.InstallSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot installed")
	}
}

// TestReplicatedRestartWarmLoad: with rf=2 the ownership filter accepts
// replicated keys too, so a restarted shard warm-loads both the keys it
// is primary for and the ones it replicates — including snapshots that
// arrived via shipping, which SaveDataset/SaveModel persisted on install.
func TestReplicatedRestartWarmLoad(t *testing.T) {
	corpus := testCorpus(t, 6)
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	h := startRingRF(t, 3, 2, dirs)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
		if _, err := h.clients[0].Fit(api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params}); err != nil {
			t.Fatal(err)
		}
	}
	target := 0
	for i := range h.routers {
		if h.routers[i].Owns(corpus[0].name) {
			target = i
		}
	}
	owned := 0
	for _, e := range corpus {
		if h.routers[target].Owns(e.name) {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("target shard replicates nothing; harness broken")
	}
	store, err := persist.Open(dirs[target], t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	restarted := New(Options{Workers: 1, CacheSize: 16, Store: store, Owns: h.routers[target].Owns})
	st := restarted.Stats()
	if st.DatasetsRestored != owned {
		t.Fatalf("restart restored %d datasets, want the %d replicated keys (primary and replica alike)",
			st.DatasetsRestored, owned)
	}
	if st.ModelsRestored != owned {
		t.Fatalf("restart restored %d models, want %d", st.ModelsRestored, owned)
	}
	for _, e := range corpus {
		if !h.routers[target].Owns(e.name) {
			continue
		}
		fr, err := restarted.Fit(e.name, "Ex-DPC", coreParams(e.params))
		if err != nil {
			t.Fatal(err)
		}
		if !fr.CacheHit {
			t.Errorf("fit %s after restart missed the restored cache", e.name)
		}
	}
	if got := restarted.Stats().CacheMisses; got != 0 {
		t.Errorf("restarted shard performed %d fits; want zero", got)
	}
}

// TestOwnsFuncMatchesRouter: the pre-router warm-load filter and the
// router's own replica ownership must agree for every key and rf, or a
// restart would load the wrong snapshot set.
func TestOwnsFuncMatchesRouter(t *testing.T) {
	addrs := []string{"http://10.0.0.1:1", "http://10.0.0.2:1", "http://10.0.0.3:1"}
	for rf := 1; rf <= 3; rf++ {
		for _, self := range addrs {
			owns, err := OwnsFunc(self, addrs, 128, rf)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewRouter(New(Options{}), self, addrs, RouterOptions{Vnodes: 128, RF: rf})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("dataset-%03d", i)
				if owns(key) != rt.Owns(key) {
					t.Fatalf("rf=%d self=%s key=%s: OwnsFunc=%v Router.Owns=%v",
						rf, self, key, owns(key), rt.Owns(key))
				}
			}
		}
	}
}

// TestInstallNewerDatasetDropsIndex: a replica that installs a newer
// dataset version forgets the replaced version's density index at once,
// as PutDataset does: its next decision graph builds exactly one new
// index, over the new points, and answers what the primary does.
func TestInstallNewerDatasetDropsIndex(t *testing.T) {
	d1 := data.SSet(2, 300, 1)
	primary := New(Options{Workers: 1})
	if _, err := primary.PutDataset("ds", d1.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.DecisionGraph("ds", d1.DCut, 5); err != nil {
		t.Fatal(err)
	}
	v1 := primary.ReplicationSnapshots("ds")
	if len(v1) != 1 {
		t.Fatalf("primary exported %d snapshots at v1, want the dataset alone", len(v1))
	}
	d2 := data.SSet(2, 350, 2)
	if _, err := primary.PutDataset("ds", d2.Points); err != nil {
		t.Fatal(err)
	}
	v2 := primary.ReplicationSnapshots("ds")
	if len(v2) != 1 {
		t.Fatalf("primary exported %d snapshots at v2, want the dataset alone", len(v2))
	}

	replica := New(Options{Workers: 1})
	if res, err := replica.InstallSnapshot(v1[0]); err != nil || !res.Installed {
		t.Fatalf("install v1 dataset: %+v, %v", res, err)
	}
	// The replica builds its own index on its first decision graph.
	if _, err := replica.DecisionGraph("ds", d1.DCut, 5); err != nil {
		t.Fatal(err)
	}
	if res, err := replica.InstallSnapshot(v2[0]); err != nil || !res.Installed {
		t.Fatalf("install v2 dataset: %+v, %v", res, err)
	}
	got, err := replica.DecisionGraph("ds", d1.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.IndexReused {
		t.Error("decision graph after the v2 install reused the replaced version's index")
	}
	if st := replica.Stats(); st.IndexBuilds != 2 {
		t.Errorf("replica paid %d index builds, want 2", st.IndexBuilds)
	}
	want, err := primary.DecisionGraph("ds", d1.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "replica graph at v2", got, want)
}

// TestReplicationShipsDatasetThenModels: a primary ships the dataset
// image and then one image per cached model, in install order, and
// nothing for its density index. The replica, and a restart over the
// primary's snapshot directory, assign the primary's labels exactly,
// with zero fits and zero index builds.
func TestReplicationShipsDatasetThenModels(t *testing.T) {
	dir := t.TempDir()
	d, p := fixture(t, 500)
	queries := d.Points.Rows()[:128]
	algs := []string{"Ex-DPC", "Approx-DPC"}
	primary := New(Options{Workers: 2, Store: openStore(t, dir)})
	if _, err := primary.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.DecisionGraph("s2", p.DCut, 5); err != nil {
		t.Fatal(err)
	}
	want := map[string][]int32{}
	for _, alg := range algs {
		labels, _, err := primary.Assign("s2", alg, p, queries)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		want[alg] = labels
	}

	replica := New(Options{Workers: 1})
	var kinds []string
	for _, raw := range primary.ReplicationSnapshots("s2") {
		res, err := replica.InstallSnapshot(raw)
		if err != nil || !res.Installed {
			t.Fatalf("install %s: %+v, %v", res.Kind, res, err)
		}
		kinds = append(kinds, res.Kind)
	}
	if got := strings.Join(kinds, ","); got != "dataset,model,model" {
		t.Errorf("shipped kinds %s, want dataset,model,model", got)
	}
	restarted := New(Options{Workers: 1, Store: openStore(t, dir)})
	if st := restarted.Stats(); st.DatasetsRestored != 1 || st.ModelsRestored != len(algs) {
		t.Fatalf("restart restored %d/%d datasets/models, want 1/%d",
			st.DatasetsRestored, st.ModelsRestored, len(algs))
	}
	for name, s := range map[string]*Service{"replica": replica, "restart": restarted} {
		for _, alg := range algs {
			labels, fr, err := s.Assign("s2", alg, p, queries)
			if err != nil {
				t.Fatalf("%s %s: %v", name, alg, err)
			}
			if !fr.CacheHit {
				t.Errorf("%s %s missed the installed model", name, alg)
			}
			labelsEqual(t, name+" "+alg, labels, want[alg])
		}
		if st := s.Stats(); st.CacheMisses != 0 || st.IndexBuilds != 0 {
			t.Errorf("%s paid %d fits and %d index builds, want none", name, st.CacheMisses, st.IndexBuilds)
		}
	}
}

// TestReplicateShipsModelsPastRefusedIndex: a replica that answers and
// refuses one image of a primary's batch is still sent the rest of it;
// only an unreachable replica ends its batch early. The replica's side
// of the same rule: it answers a legacy density-index image (kind 3,
// which an older primary ships between the dataset and its models) with
// a typed 4xx, and still installs the model images behind it.
func TestReplicateShipsModelsPastRefusedIndex(t *testing.T) {
	// The fake replica refuses the Approx-DPC model image.
	replica := New(Options{Workers: 1})
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if snap, _ := persist.DecodeSnapshot(raw); snap != nil {
			if m, ok := snap.(*persist.ModelSnapshot); ok && m.Key.Algorithm == "Approx-DPC" {
				writeError(w, http.StatusRequestEntityTooLarge, errors.New("snapshot over the upload cap"))
				return
			}
		}
		res, err := replica.InstallSnapshot(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}))
	defer fake.Close()

	self := "http://primary.invalid"
	primary := New(Options{Workers: 1})
	rt, err := NewRouter(primary, self, []string{self, fake.URL}, RouterOptions{Vnodes: 16, RF: 2, Client: testClientOptions()})
	if err != nil {
		t.Fatal(err)
	}
	d, p := fixture(t, 300)
	if _, err := primary.PutDataset("ds", d.Points); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"Approx-DPC", "Ex-DPC"} {
		if _, err := primary.Fit("ds", alg, p); err != nil {
			t.Fatal(err)
		}
	}
	rt.replicate("ds", []string{self, fake.URL})
	if got := rt.replicationErrors.Load(); got != 1 {
		t.Errorf("%d ship errors, want 1 (the refused model)", got)
	}
	if st := replica.Stats(); st.DatasetsReplicated != 1 || st.ModelsReplicated != 1 {
		t.Errorf("replica installed %d datasets / %d models, want 1/1", st.DatasetsReplicated, st.ModelsReplicated)
	}

	// An older primary's batch, shipped over HTTP to a current replica.
	snaps := primary.ReplicationSnapshots("ds")
	if len(snaps) != 3 {
		t.Fatalf("primary exported %d snapshots, want the dataset and 2 models", len(snaps))
	}
	h := startRingRF(t, 1, 1, nil)
	batch := [][]byte{snaps[0], legacyIndexImage(snaps[0]), snaps[1], snaps[2]}
	for i, raw := range batch {
		res, err := h.clients[0].ShipSnapshot(raw)
		if i == 1 {
			var ae *api.APIError
			if !errors.As(err, &ae) || ae.Status < 400 || ae.Status >= 500 {
				t.Fatalf("legacy index image: %+v, %v; want a typed 4xx", res, err)
			}
			continue
		}
		if err != nil || !res.Installed {
			t.Fatalf("image %d: %+v, %v", i, res, err)
		}
	}
	if st := h.svcs[0].Stats(); st.DatasetsReplicated != 1 || st.ModelsReplicated != 2 {
		t.Errorf("replica installed %d datasets / %d models, want 1/2", st.DatasetsReplicated, st.ModelsReplicated)
	}
}
