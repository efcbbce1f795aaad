package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gpmetis/internal/fault"
	"gpmetis/internal/gpu"
	"gpmetis/internal/graph"
	"gpmetis/internal/perfmodel"
)

// testState builds a snapshot exercising every encoded field, including
// the optional ones (partition vector, events, fault counters).
func testState(t testing.TB) *State {
	t.Helper()
	// A triangle and a 2-path: two small valid CSR graphs.
	g1 := &graph.Graph{
		XAdj:   []int{0, 2, 4, 6},
		Adjncy: []int{1, 2, 0, 2, 0, 1},
		AdjWgt: []int{1, 2, 1, 3, 2, 3},
		VWgt:   []int{1, 1, 1},
	}
	g2 := &graph.Graph{
		XAdj:   []int{0, 1, 2},
		Adjncy: []int{1, 0},
		AdjWgt: []int{4, 4},
		VWgt:   []int{2, 1},
	}
	for _, g := range []*graph.Graph{g1, g2} {
		if err := g.Validate(); err != nil {
			t.Fatalf("test graph invalid: %v", err)
		}
	}
	return &State{
		GraphDigest:    0xdeadbeefcafe,
		OptionsSig:     0x0123456789abcdef,
		Phase:          PhaseUncoarsen,
		Level:          1,
		GPULevels:      2,
		CPULevels:      3,
		MatchConflicts: 7,
		MatchAttempts:  41,
		Graphs:         []*graph.Graph{g1, g2},
		Cmaps:          [][]int{{0, 0, 1, 2}, {0, 1, 1}},
		Part:           []int{0, 1, 0},
		Timeline: []perfmodel.Phase{
			{Name: "upload", Loc: perfmodel.LocPCIe, Seconds: 0.5, Span: 3},
			{Name: "coarsen.L0", Loc: perfmodel.LocGPU, Seconds: 1.25, Span: 0},
			{Name: "cpu.metis", Loc: perfmodel.LocCPU, Seconds: math.Pi, Span: 9},
		},
		Clock: 0.5 + 1.25 + math.Pi,
		Stats: gpu.Stats{
			Kernels: 5, Threads: 1000, WarpInstructions: 2000,
			LaneInstructions: 3000, Transactions: 400, Accesses: 500,
			AtomicOps: 60, AtomicSerial: 70, BytesToDevice: 8000, BytesToHost: 900,
		},
		Events: []Event{
			{Site: "gpu.kernel", Action: "hash-to-sort", Level: 1, Seconds: 0.25, Detail: "injected"},
		},
		Fault: &fault.Counters{
			Evals: map[fault.Site]int64{"gpu.kernel": 12, "transfer": 4},
			Fires: map[fault.Site]int64{"gpu.kernel": 1},
		},
	}
}

func encode(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestCodecRoundTrip(t *testing.T) {
	st := testState(t)
	got, err := Read(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.GraphDigest != st.GraphDigest || got.OptionsSig != st.OptionsSig {
		t.Errorf("fingerprints: got (%x,%x) want (%x,%x)",
			got.GraphDigest, got.OptionsSig, st.GraphDigest, st.OptionsSig)
	}
	if got.Phase != st.Phase || got.Level != st.Level {
		t.Errorf("phase/level: got (%v,%d) want (%v,%d)", got.Phase, got.Level, st.Phase, st.Level)
	}
	if got.GPULevels != st.GPULevels || got.CPULevels != st.CPULevels ||
		got.MatchConflicts != st.MatchConflicts || got.MatchAttempts != st.MatchAttempts {
		t.Errorf("counters differ: got %+v", got)
	}
	if len(got.Graphs) != len(st.Graphs) {
		t.Fatalf("got %d graphs, want %d", len(got.Graphs), len(st.Graphs))
	}
	for j := range st.Graphs {
		if !graphEqual(got.Graphs[j], st.Graphs[j]) {
			t.Errorf("graph %d differs", j)
		}
	}
	if len(got.Cmaps) != len(st.Cmaps) {
		t.Fatalf("got %d cmaps, want %d", len(got.Cmaps), len(st.Cmaps))
	}
	for j := range st.Cmaps {
		if !intsEqual(got.Cmaps[j], st.Cmaps[j]) {
			t.Errorf("cmap %d differs", j)
		}
	}
	if !intsEqual(got.Part, st.Part) {
		t.Errorf("part: got %v want %v", got.Part, st.Part)
	}
	if len(got.Timeline) != len(st.Timeline) {
		t.Fatalf("got %d timeline phases, want %d", len(got.Timeline), len(st.Timeline))
	}
	for j, p := range st.Timeline {
		if got.Timeline[j] != p {
			t.Errorf("phase %d: got %+v want %+v", j, got.Timeline[j], p)
		}
	}
	if got.ModeledSeconds() != st.ModeledSeconds() {
		t.Errorf("modeled seconds: got %v want %v", got.ModeledSeconds(), st.ModeledSeconds())
	}
	if got.Stats != st.Stats {
		t.Errorf("stats: got %+v want %+v", got.Stats, st.Stats)
	}
	if len(got.Events) != 1 || got.Events[0] != st.Events[0] {
		t.Errorf("events: got %+v want %+v", got.Events, st.Events)
	}
	if got.Fault == nil {
		t.Fatal("fault counters lost")
	}
	for site, v := range st.Fault.Evals {
		if got.Fault.Evals[site] != v {
			t.Errorf("evals[%s]: got %d want %d", site, got.Fault.Evals[site], v)
		}
	}
	for site, v := range st.Fault.Fires {
		if got.Fault.Fires[site] != v {
			t.Errorf("fires[%s]: got %d want %d", site, got.Fault.Fires[site], v)
		}
	}
}

func TestCodecNilOptionalFields(t *testing.T) {
	st := &State{Phase: PhaseCoarsen, Level: 1,
		Graphs: testState(t).Graphs[:1], Cmaps: [][]int{{0, 0, 1}}}
	got, err := Read(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Part != nil || got.Events != nil && len(got.Events) != 0 || got.Fault != nil {
		t.Errorf("optional fields not empty: part=%v events=%v fault=%v",
			got.Part, got.Events, got.Fault)
	}
}

func TestCodecCanonical(t *testing.T) {
	// Equal states must encode to equal bytes — map iteration order must
	// not leak into the stream (the journal digests these bytes).
	a := encode(t, testState(t))
	for i := 0; i < 10; i++ {
		if !bytes.Equal(a, encode(t, testState(t))) {
			t.Fatal("encoding is not canonical across runs")
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	good := encode(t, testState(t))

	t.Run("bit flips", func(t *testing.T) {
		// Flip one bit at a spread of offsets; every flip must be caught.
		for off := 0; off < len(good); off += 13 {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("flip at %d: got %v, want ErrCorrupt", off, err)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 3, 16, len(good) / 2, len(good) - 1} {
			if _, err := Read(bytes.NewReader(good[:n])); !errors.Is(err, ErrCorrupt) {
				t.Errorf("truncated to %d: got %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		copy(bad, "NOPE")
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(bad[4:], 99)
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("absurd length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		putU64(bad[8:], 1<<40)
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing garbage in payload", func(t *testing.T) {
		// Extend the payload and fix up length + checksum: structurally
		// valid wrapper, trailing junk inside. The decoder must notice.
		st := testState(t)
		payload := encodePayload(st)
		payload = append(payload, 0xFF)
		var buf bytes.Buffer
		var hdr [16]byte
		copy(hdr[:4], magic[:])
		binary.LittleEndian.PutUint16(hdr[4:], codecVersion)
		putU64(hdr[8:], uint64(len(payload)))
		buf.Write(hdr[:])
		buf.Write(payload)
		sum := sha256.Sum256(payload)
		buf.Write(sum[:])
		if _, err := Read(&buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	st := testState(t)
	if err := WriteFile(path, st); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.GraphDigest != st.GraphDigest || got.Phase != st.Phase {
		t.Errorf("round trip lost identity: %+v", got)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the checkpoint", len(entries))
	}
}

func TestWriteFileDurabilityError(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "missing", "deep", "run.ckpt"), testState(t))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("got %v, want ErrDurability", err)
	}
}

func TestDigestGraphDiscriminates(t *testing.T) {
	st := testState(t)
	g1, g2 := st.Graphs[0], st.Graphs[1]
	if DigestGraph(g1) == DigestGraph(g2) {
		t.Error("different graphs, same digest")
	}
	if DigestGraph(g1) != DigestGraph(g1) {
		t.Error("digest not deterministic")
	}
	// A single weight change must change the digest.
	mod := &graph.Graph{
		XAdj:   g1.XAdj,
		Adjncy: g1.Adjncy,
		AdjWgt: append([]int(nil), g1.AdjWgt...),
		VWgt:   g1.VWgt,
	}
	mod.AdjWgt[0]++
	if DigestGraph(g1) == DigestGraph(mod) {
		t.Error("weight change not reflected in digest")
	}
}

func graphEqual(a, b *graph.Graph) bool {
	return intsEqual(a.XAdj, b.XAdj) && intsEqual(a.Adjncy, b.Adjncy) &&
		intsEqual(a.AdjWgt, b.AdjWgt) && intsEqual(a.VWgt, b.VWgt)
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
