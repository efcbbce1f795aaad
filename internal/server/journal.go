package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpmetis/internal/checkpoint"
)

// Journal is the daemon's durable write-ahead log: one JSON record per
// line, fsynced per append, so a restarted gpmetisd can reconstruct
// every job the previous process had accepted. The record stream is
// state-transition shaped — submit, running, then exactly one terminal
// record — and replay folds it back into per-job outcomes.
//
// Durability failures (ENOSPC, a vanished directory, a failed fsync) are
// surfaced as checkpoint.ErrDurability exactly once; the journal then
// disables itself and the daemon keeps serving non-durably rather than
// crashing, per the degradation contract of DESIGN.md §10.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	path     string
	appends  int64 // since last open/rotate
	disabled bool
}

// Record is one journal line. Type decides which fields are meaningful:
//
//	submit:    ID, Seq, Req (no graph text once the job is terminal)
//	running:   ID
//	done:      ID, Key (may be empty), Result
//	failed:    ID, Error
//	canceled:  ID, Error
//	replica:   ID ("replica-" + key prefix), Key, Result — a cache
//	           entry this node holds as a ring replica of a peer's
//	           work; replay re-seeds it without re-replicating
//
// Replay passes other types through and recovery ignores them, so the
// "estimator" lines older daemons wrote are skipped and vanish at the
// next rotation.
type Record struct {
	Type   string         `json:"type"`
	ID     string         `json:"id"`
	Seq    int            `json:"seq,omitempty"`
	Req    *SubmitRequest `json:"req,omitempty"`
	Key    string         `json:"key,omitempty"`
	Result *JobResult     `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// Journal record types.
const (
	RecSubmit   = "submit"
	RecRunning  = "running"
	RecDone     = "done"
	RecFailed   = "failed"
	RecCanceled = "canceled"
	RecReplica  = "replica"
)

// OpenJournal opens (creating if needed) the journal at path for
// appending. Failures wrap checkpoint.ErrDurability.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: open journal: %v", checkpoint.ErrDurability, err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// Append durably writes records, one line each, in one write: marshal,
// write, flush, one fsync. The first failure wraps
// checkpoint.ErrDurability and permanently disables the journal
// (subsequent appends are silent no-ops returning nil), so the caller
// logs the degradation once and keeps serving.
func (j *Journal) Append(recs ...Record) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.disabled {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: marshal: %w", err)
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := j.appendLocked(buf); err != nil {
		j.disabled = true
		return fmt.Errorf("%w: journal append: %v", checkpoint.ErrDurability, err)
	}
	j.appends += int64(len(recs))
	return nil
}

func (j *Journal) appendLocked(lines []byte) error {
	if _, err := j.w.Write(lines); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Appends returns the number of records appended since open or the last
// rotation, the input to the server's rotation policy.
func (j *Journal) Appends() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Disabled reports whether a durability failure switched the journal off.
func (j *Journal) Disabled() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.disabled
}

// Rotate atomically replaces the journal with a compacted record set
// (typically: one submit+terminal pair per retained job, live jobs as
// submit/running). The new content is written to a temp file, fsynced,
// and renamed over the old journal; the journal then continues appending
// to the new file. On failure the old journal keeps working if possible,
// and the error wraps checkpoint.ErrDurability.
func (j *Journal) Rotate(records []Record) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.disabled {
		return nil
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("%w: rotate: %v", checkpoint.ErrDurability, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%w: rotate: %v", checkpoint.ErrDurability, err)
	}
	bw := bufio.NewWriter(tmp)
	for _, rec := range records {
		line, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		if _, err := bw.Write(line); err != nil {
			return fail(err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: rotate: %v", checkpoint.ErrDurability, err)
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: rotate: %v", checkpoint.ErrDurability, err)
	}
	// Swap the append handle to the new file.
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.disabled = true
		return fmt.Errorf("%w: rotate reopen: %v", checkpoint.ErrDurability, err)
	}
	j.f.Close()
	j.f = nf
	j.w = bufio.NewWriter(nf)
	j.appends = 0
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.disabled {
		j.f.Close()
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// ReplayJournal reads a journal back as its record sequence. A corrupt
// tail — a torn final line from a crash mid-append, or trailing garbage
// — is tolerated: replay stops at the first unparsable line and reports
// how many lines it dropped. A missing file replays as empty.
func ReplayJournal(path string) (records []Record, dropped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 512<<20)
	lines := 0
	bad := false
	for sc.Scan() {
		lines++
		if bad {
			dropped++
			continue
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if jsonErr := json.Unmarshal(line, &rec); jsonErr != nil || rec.Type == "" || rec.ID == "" {
			// Corrupt-tail tolerance: everything from here on is dropped.
			bad = true
			dropped++
			continue
		}
		records = append(records, rec)
	}
	if scanErr := sc.Err(); scanErr != nil {
		// An unterminated or overlong final chunk counts as a torn tail.
		dropped++
	}
	return records, dropped, nil
}
