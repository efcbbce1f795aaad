package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"time"
)

// NewTraceID mints a 128-bit random trace id rendered as 32 lowercase
// hex characters. Randomness comes from crypto/rand so ids stay unique
// across nodes and restarts — the old time-derived scheme collided when
// two nodes assigned ids in the same tick. If the system entropy pool
// fails (it effectively never does on the platforms we run on), the
// fallback mixes the clock so the id is still usable, just weaker.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		now := uint64(time.Now().UnixNano())
		binary.BigEndian.PutUint64(b[:8], now)
		binary.BigEndian.PutUint64(b[8:], now^0x9e3779b97f4a7c15)
	}
	return hex.EncodeToString(b[:])
}
