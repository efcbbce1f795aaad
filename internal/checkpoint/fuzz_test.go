package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// seal wraps payload in a valid header and checksum, so Read reaches
// decodePayload with bytes no checksum would otherwise let through.
func seal(payload []byte) []byte {
	var hdr [16]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:], codecVersion)
	putU64(hdr[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out := append(hdr[:], payload...)
	return append(out, sum[:]...)
}

// FuzzCheckpointDecode feeds arbitrary bytes to Read twice: as a raw
// file, and sealed as a payload behind a valid header and checksum.
// Neither may panic, every failure must wrap ErrCorrupt, and a payload
// that decodes must re-encode to one that decodes to the same bytes.
func FuzzCheckpointDecode(f *testing.F) {
	payload := encodePayload(testState(f))
	f.Add(payload)
	f.Add(seal(payload))
	f.Add(payload[:len(payload)/2])
	f.Add(encodePayload(&State{Phase: PhaseCoarsen}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := Read(bytes.NewReader(b)); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("raw bytes: error %v does not wrap ErrCorrupt", err)
		}
		st, err := Read(bytes.NewReader(seal(b)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("sealed payload: error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		again := encodePayload(st)
		st2, err := decodePayload(again)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !bytes.Equal(encodePayload(st2), again) {
			t.Fatal("re-encoded state is not stable across a decode")
		}
	})
}

// TestHugeLengthAllocatesLittle: a bare header claiming the largest
// legal payload is rejected as corrupt, and Read allocates for the
// bytes it saw, not for the length the header claimed.
func TestHugeLengthAllocatesLittle(t *testing.T) {
	var hdr [16]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:], codecVersion)
	putU64(hdr[8:], maxPayload)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("error %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a %d-byte file allocated %d bytes, want < 1 MiB", len(hdr), got)
	}
}
