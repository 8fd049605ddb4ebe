package service

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/data"
	"repro/internal/wire"
)

// TestIndexShipsAfterFrameDecisionGraph: the index ships to the replicas
// when the primary's build was paid by a frame-coded decision graph
// (Accept: application/x-dpc-frame), exactly as after a JSON one.
func TestIndexShipsAfterFrameDecisionGraph(t *testing.T) {
	h := startRingRF(t, 2, 2, nil)
	d := data.SSet(2, 400, 7)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	const name = "pts"
	h.uploadCSV(0, name, csv.Bytes())
	primary := 0
	if owners := h.routers[0].owners(name); owners[0] != h.addrs[0] {
		primary = 1
	}
	replica := 1 - primary

	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/decision-graph?dataset=%s&dcut=%g&limit=10", h.addrs[primary], name, d.DCut), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentType {
		t.Fatalf("frame decision graph: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	rs := h.svcs[replica]
	rs.mu.RLock()
	e, ok := rs.datasets[name]
	rs.mu.RUnlock()
	if !ok {
		t.Fatal("replica lost the dataset")
	}
	if idx, ok := rs.residentIndex(name, e.version, d.DCut); !ok || idx == nil {
		t.Fatal("replica has no index after the primary's frame-coded build; the ship did not land")
	}
	if st := rs.Stats(); st.IndexBuilds != 0 {
		t.Errorf("replica paid %d builds, want 0 (the index ships)", st.IndexBuilds)
	}
}
