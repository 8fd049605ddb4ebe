package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame guards the binary wire decoder the same way
// FuzzDecodeSnapshot guards snapshot restores: arbitrary byte streams
// must decode or error, never panic or allocate past the input size, and
// an accepted frame must be internally consistent and re-encode to the
// exact bytes it was decoded from (float64 frames; float32 frames widen,
// so their canonical re-encode narrows back instead).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendHeader(nil, Header{
		Dataset: "s2", Algorithm: "Ex-DPC",
		DCut: 2500, RhoMin: 5, DeltaMin: 12000, Epsilon: 0.5, Seed: 7,
	}))
	pts64 := AppendPointsRows(nil, [][]float64{{1.5, -2.25}, {3, 4}}, false)
	pts32 := AppendPointsRows(nil, [][]float64{{1.5, -2.25}, {3, 4}}, true)
	f.Add(pts64)
	f.Add(pts32)
	f.Add(AppendLabels(nil, []int32{0, -1, 7}))
	f.Add(AppendSummary(nil, Summary{Points: 9, Chunks: 2, Clusters: 3, CacheHit: true}))
	f.Add(AppendError(nil, "shard died"))
	f.Add(pts64[:frameHeaderSize-1])                       // torn header
	f.Add(pts64[:len(pts64)-3])                            // torn payload
	f.Add(append(append([]byte(nil), pts64...), pts32...)) // multi-frame
	f.Add([]byte("DPCF but not really a frame"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, rest, err := DecodeFrame(raw)
		if err != nil {
			return
		}
		consumed := raw[:len(raw)-len(rest)]
		switch fr.Kind {
		case KindHeader:
			if re := AppendHeader(nil, fr.Header); !bytes.Equal(re, consumed) {
				t.Fatal("accepted header frame did not re-encode canonically")
			}
		case KindPoints:
			if fr.N*fr.Dim != len(fr.Coords) {
				t.Fatalf("inconsistent points frame: %dx%d with %d coords", fr.N, fr.Dim, len(fr.Coords))
			}
			if fr.N > 0 && fr.Dim == 0 {
				t.Fatal("zero-dimensional points accepted")
			}
			// Float32 payloads widen on decode; narrowing back must be
			// byte-exact because widening is lossless.
			rows := make([][]float64, fr.N)
			for j := range rows {
				rows[j] = fr.Row(j)
			}
			re := AppendPointsRows(nil, rows, fr.Float32)
			if fr.N == 0 {
				// Rows cannot carry a width without a row: the encoder
				// writes an empty frame as 0x0, so put the declared one in.
				binary.LittleEndian.PutUint32(re[frameHeaderSize+4:], uint32(fr.Dim))
			}
			if !bytes.Equal(re, consumed) {
				t.Fatal("accepted points frame did not re-encode canonically")
			}
		case KindLabels:
			if re := AppendLabels(nil, fr.Labels); !bytes.Equal(re, consumed) {
				t.Fatal("accepted labels frame did not re-encode canonically")
			}
		case KindSummary:
			if re := AppendSummary(nil, fr.Summary); !bytes.Equal(re, consumed) {
				t.Fatal("accepted summary frame did not re-encode canonically")
			}
		case KindError:
			if re := AppendError(nil, fr.ErrMsg); !bytes.Equal(re, consumed) {
				t.Fatal("accepted error frame did not re-encode canonically")
			}
		case KindDecision:
			if re := AppendDecision(nil, fr.Decision); !bytes.Equal(re, consumed) {
				t.Fatal("accepted decision frame did not re-encode canonically")
			}
		default:
			t.Fatalf("decoded unknown kind %d", fr.Kind)
		}
	})
}
