package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gpmetis/internal/fault"
	"gpmetis/internal/graph"
	"gpmetis/internal/perfmodel"
)

// Wire layout:
//
//	magic "GPCK" | version u16 | reserved u16 | payloadLen u64
//	| payload | sha256(payload)
//
// The payload is a flat little-endian field stream (see encodePayload).
// Everything after the header is covered by the trailing checksum, so a
// torn write, a truncated download, or a flipped bit all decode to
// ErrCorrupt rather than to a subtly wrong resume.

const (
	codecVersion = 1
	// maxPayload bounds decode-side allocation: a checkpoint holds at
	// most a handful of CSR graphs, so 1 GiB is far beyond any real
	// state and small enough to refuse absurd length prefixes.
	maxPayload = 1 << 30
)

var magic = [4]byte{'G', 'P', 'C', 'K'}

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// Write encodes st to w in the versioned, checksummed binary form.
func Write(w io.Writer, st *State) error {
	payload := encodePayload(st)
	var hdr [16]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:], codecVersion)
	putU64(hdr[8:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	_, err := w.Write(sum[:])
	return err
}

// Read decodes a checkpoint written by Write, verifying version and
// checksum. All failures wrap ErrCorrupt.
func Read(r io.Reader) (*State, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, codecVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, n)
	}
	// Grow the buffer with the bytes that arrive, not the length the
	// header claims: a 16-byte file must not allocate a gigabyte.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	if uint64(len(payload)) < n {
		return nil, fmt.Errorf("%w: short payload: %d of %d bytes", ErrCorrupt, len(payload), n)
	}
	var sum [sha256.Size]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	st, err := decodePayload(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return st, nil
}

// enc is a little-endian append-only field writer.
type enc struct{ b []byte }

func (e *enc) u64(v uint64) {
	var b [8]byte
	putU64(b[:], v)
	e.b = append(e.b, b[:]...)
}
func (e *enc) i(v int)       { e.u64(uint64(int64(v))) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) str(s string)  { e.i(len(s)); e.b = append(e.b, s...) }
func (e *enc) ints(s []int) {
	e.i(len(s))
	for _, v := range s {
		e.i(v)
	}
}

func encodePayload(st *State) []byte {
	e := &enc{}
	e.u64(st.GraphDigest)
	e.u64(st.OptionsSig)
	e.u8(uint8(st.Phase))
	e.i(st.Level)
	e.i(st.GPULevels)
	e.i(st.CPULevels)
	e.i(st.MatchConflicts)
	e.i(st.MatchAttempts)

	e.i(len(st.Graphs))
	for _, g := range st.Graphs {
		e.ints(g.XAdj)
		e.ints(g.Adjncy)
		e.ints(g.AdjWgt)
		e.ints(g.VWgt)
	}
	e.i(len(st.Cmaps))
	for _, c := range st.Cmaps {
		e.ints(c)
	}
	e.ints(st.Part)

	e.f64(st.Clock)
	e.i(len(st.Timeline))
	for _, p := range st.Timeline {
		e.str(p.Name)
		e.u8(uint8(p.Loc))
		e.f64(p.Seconds)
		e.i64(p.Span)
	}

	s := st.Stats
	for _, v := range []int64{int64(s.Kernels), s.Threads, s.WarpInstructions,
		s.LaneInstructions, s.Transactions, s.Accesses, s.AtomicOps,
		s.AtomicSerial, s.BytesToDevice, s.BytesToHost} {
		e.i64(v)
	}

	e.i(len(st.Events))
	for _, ev := range st.Events {
		e.str(ev.Site)
		e.str(ev.Action)
		e.i(ev.Level)
		e.f64(ev.Seconds)
		e.str(ev.Detail)
	}

	if st.Fault == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.counterMap(st.Fault.Evals)
		e.counterMap(st.Fault.Fires)
	}
	return e.b
}

func (e *enc) counterMap(m map[fault.Site]int64) {
	// Sorted emission keeps the encoding canonical: equal states encode
	// to equal bytes regardless of map iteration order.
	sites := make([]string, 0, len(m))
	for s := range m {
		sites = append(sites, string(s))
	}
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0 && sites[j] < sites[j-1]; j-- {
			sites[j], sites[j-1] = sites[j-1], sites[j]
		}
	}
	e.i(len(sites))
	for _, s := range sites {
		e.str(s)
		e.i64(m[fault.Site(s)])
	}
}

// dec is the matching reader; every accessor returns an error on
// truncation or an implausible length so decodePayload can bail early.
type dec struct {
	b   []byte
	off int
}

func (d *dec) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, fmt.Errorf("truncated at offset %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}
func (d *dec) i() (int, error) {
	v, err := d.u64()
	return int(int64(v)), err
}
func (d *dec) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}
func (d *dec) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}
func (d *dec) u8() (uint8, error) {
	if d.off >= len(d.b) {
		return 0, fmt.Errorf("truncated at offset %d", d.off)
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}
func (d *dec) count() (int, error) {
	n, err := d.i()
	if err != nil {
		return 0, err
	}
	// No field can legitimately hold more elements than remaining bytes.
	if n < 0 || n > len(d.b)-d.off {
		return 0, fmt.Errorf("implausible count %d at offset %d", n, d.off)
	}
	return n, nil
}
func (d *dec) str() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s, nil
}
func (d *dec) ints() ([]int, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > (len(d.b)-d.off)/8 {
		return nil, fmt.Errorf("implausible slice length %d at offset %d", n, d.off)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(d.b[d.off:])))
		d.off += 8
	}
	return out, nil
}

func decodePayload(b []byte) (*State, error) {
	d := &dec{b: b}
	st := &State{}
	var err error
	if st.GraphDigest, err = d.u64(); err != nil {
		return nil, err
	}
	if st.OptionsSig, err = d.u64(); err != nil {
		return nil, err
	}
	ph, err := d.u8()
	if err != nil {
		return nil, err
	}
	st.Phase = Phase(ph)
	if st.Phase < PhaseCoarsen || st.Phase > PhaseUncoarsen {
		return nil, fmt.Errorf("unknown phase %d", ph)
	}
	if st.Level, err = d.i(); err != nil {
		return nil, err
	}
	if st.GPULevels, err = d.i(); err != nil {
		return nil, err
	}
	if st.CPULevels, err = d.i(); err != nil {
		return nil, err
	}
	if st.MatchConflicts, err = d.i(); err != nil {
		return nil, err
	}
	if st.MatchAttempts, err = d.i(); err != nil {
		return nil, err
	}

	ng, err := d.count()
	if err != nil {
		return nil, err
	}
	st.Graphs = make([]*graph.Graph, ng)
	for j := range st.Graphs {
		g := &graph.Graph{}
		if g.XAdj, err = d.ints(); err != nil {
			return nil, err
		}
		if g.Adjncy, err = d.ints(); err != nil {
			return nil, err
		}
		if g.AdjWgt, err = d.ints(); err != nil {
			return nil, err
		}
		if g.VWgt, err = d.ints(); err != nil {
			return nil, err
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("graph %d: %v", j, err)
		}
		st.Graphs[j] = g
	}
	nc, err := d.count()
	if err != nil {
		return nil, err
	}
	st.Cmaps = make([][]int, nc)
	for j := range st.Cmaps {
		if st.Cmaps[j], err = d.ints(); err != nil {
			return nil, err
		}
	}
	if st.Part, err = d.ints(); err != nil {
		return nil, err
	}

	if st.Clock, err = d.f64(); err != nil {
		return nil, err
	}
	np, err := d.count()
	if err != nil {
		return nil, err
	}
	st.Timeline = make([]perfmodel.Phase, np)
	for j := range st.Timeline {
		p := &st.Timeline[j]
		if p.Name, err = d.str(); err != nil {
			return nil, err
		}
		loc, err := d.u8()
		if err != nil {
			return nil, err
		}
		p.Loc = perfmodel.Location(loc)
		if p.Seconds, err = d.f64(); err != nil {
			return nil, err
		}
		if p.Span, err = d.i64(); err != nil {
			return nil, err
		}
	}

	for _, dst := range []*int64{nil, &st.Stats.Threads, &st.Stats.WarpInstructions,
		&st.Stats.LaneInstructions, &st.Stats.Transactions, &st.Stats.Accesses,
		&st.Stats.AtomicOps, &st.Stats.AtomicSerial, &st.Stats.BytesToDevice,
		&st.Stats.BytesToHost} {
		v, err := d.i64()
		if err != nil {
			return nil, err
		}
		if dst == nil {
			st.Stats.Kernels = int(v)
		} else {
			*dst = v
		}
	}

	ne, err := d.count()
	if err != nil {
		return nil, err
	}
	st.Events = make([]Event, ne)
	for j := range st.Events {
		ev := &st.Events[j]
		if ev.Site, err = d.str(); err != nil {
			return nil, err
		}
		if ev.Action, err = d.str(); err != nil {
			return nil, err
		}
		if ev.Level, err = d.i(); err != nil {
			return nil, err
		}
		if ev.Seconds, err = d.f64(); err != nil {
			return nil, err
		}
		if ev.Detail, err = d.str(); err != nil {
			return nil, err
		}
	}

	hasFault, err := d.u8()
	if err != nil {
		return nil, err
	}
	if hasFault == 1 {
		c := &fault.Counters{}
		if c.Evals, err = d.siteMap(); err != nil {
			return nil, err
		}
		if c.Fires, err = d.siteMap(); err != nil {
			return nil, err
		}
		st.Fault = c
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return st, nil
}

func (d *dec) siteMap() (map[fault.Site]int64, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	m := make(map[fault.Site]int64, n)
	for i := 0; i < n; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.i64()
		if err != nil {
			return nil, err
		}
		m[fault.Site(s)] = v
	}
	return m, nil
}
