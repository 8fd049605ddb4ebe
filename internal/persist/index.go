package persist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// IndexSnapshot is the decoded form of one density-index snapshot: the
// CSR neighbor lists of internal/densindex, tied to the exact dataset
// version (and fingerprint) they were built from. The index structure
// itself is rebuilt by densindex.FromParts, which re-validates the CSR
// invariants — the codec below only guarantees the arrays are framed
// and sized honestly.
type IndexSnapshot struct {
	Dataset string
	Version uint64
	// DatasetFingerprint is geom.Dataset.Fingerprint of the indexed
	// points, so an index is never attached to different data.
	DatasetFingerprint uint64
	DCutMax            float64
	Start              []int64
	IDs                []int32
	Sq                 []float64
}

// EncodeIndex produces the canonical snapshot file image for one
// density index; DecodeSnapshot inverts it exactly.
func EncodeIndex(snap *IndexSnapshot) []byte {
	var e encoder
	e.str(snap.Dataset)
	e.u64(snap.Version)
	e.u64(snap.DatasetFingerprint)
	e.f64(snap.DCutMax)
	e.u64(uint64(len(snap.Start)))
	e.u64(uint64(len(snap.IDs)))
	e.i64s(snap.Start)
	e.i32s(snap.IDs)
	e.f64s(snap.Sq)
	return encodeSnapshot(kindIndex, e.buf)
}

func decodeIndex(payload []byte) (*IndexSnapshot, error) {
	d := &decoder{b: payload}
	snap := &IndexSnapshot{}
	snap.Dataset = d.str()
	snap.Version = d.u64()
	snap.DatasetFingerprint = d.u64()
	snap.DCutMax = d.f64()
	rows := d.u64()
	edges := d.u64()
	// Row offsets cost 8 bytes each, edges 4+8 (id + squared distance);
	// reject the declared counts against the bytes present before
	// allocating any of the three arrays.
	if d.err == nil && rows > uint64(len(d.b))/8 {
		d.fail("persist: declared %d row offsets exceed %d remaining bytes", rows, len(d.b))
	}
	if d.err == nil && edges > (uint64(len(d.b))-8*rows)/12 {
		d.fail("persist: declared %d index entries exceed %d remaining bytes", edges, len(d.b))
	}
	snap.Start = d.i64s(int(rows))
	snap.IDs = d.i32s(int(edges))
	snap.Sq = d.f64s(int(edges))
	if err := d.done(); err != nil {
		return nil, err
	}
	if snap.Dataset == "" {
		return nil, fmt.Errorf("persist: index snapshot with empty dataset name")
	}
	if rows < 2 {
		return nil, fmt.Errorf("persist: index snapshot with %d row offsets (need >= 2)", rows)
	}
	if !(snap.DCutMax > 0) || math.IsInf(snap.DCutMax, 1) {
		return nil, fmt.Errorf("persist: index snapshot with dcut ceiling %g", snap.DCutMax)
	}
	return snap, nil
}

// manifestIndex is the manifest entry of a density-index snapshot. The
// list rides in an omitempty field, so manifests written by this
// version remain readable (minus the indexes) by older code — JSON
// unmarshaling ignores unknown fields — and the manifest format number
// is unchanged.
type manifestIndex struct {
	Dataset string  `json:"dataset"`
	Version uint64  `json:"version"`
	DCutMax float64 `json:"dcut_max"`
	File    string  `json:"file"`
}

// SaveIndex snapshots one dataset's density index, replacing any
// previous index snapshot for the name (one index per dataset — a
// rebuild at a larger ceiling supersedes the smaller one). Like
// SaveModel it refuses to persist against a dataset version the
// manifest does not hold, and skips saves for already-replaced
// versions.
func (s *Store) SaveIndex(snap *IndexSnapshot) error {
	if len(snap.Dataset) > maxNameLen {
		return fmt.Errorf("persist: dataset name of %d bytes exceeds the %d-byte snapshot limit", len(snap.Dataset), maxNameLen)
	}
	rel := filepath.Join("indexes", fmt.Sprintf("%016x-v%d.snap", hashString(snap.Dataset), snap.Version))
	raw := EncodeIndex(snap)

	s.mu.Lock()
	defer s.mu.Unlock()
	found := false
	for _, e := range s.m.Datasets {
		if e.Name != snap.Dataset {
			continue
		}
		if e.Version > snap.Version {
			return nil // built on a replaced version; don't persist
		}
		found = e.Version == snap.Version
		break
	}
	if !found {
		return fmt.Errorf("persist: no dataset snapshot for %s v%d; index not persisted", snap.Dataset, snap.Version)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, rel), raw); err != nil {
		return err
	}
	var remove []string
	kept := s.m.Indexes[:0]
	for _, e := range s.m.Indexes {
		if e.Dataset == snap.Dataset {
			if e.File != rel {
				remove = append(remove, e.File)
			}
			continue
		}
		kept = append(kept, e)
	}
	s.m.Indexes = append(kept, manifestIndex{
		Dataset: snap.Dataset, Version: snap.Version, DCutMax: snap.DCutMax, File: rel,
	})
	if err := s.saveManifestLocked(); err != nil {
		return err
	}
	for _, rel := range remove {
		if err := os.Remove(filepath.Join(s.dir, rel)); err != nil && !os.IsNotExist(err) {
			s.logf("persist: removing stale snapshot %s: %v", rel, err)
		}
	}
	return nil
}
