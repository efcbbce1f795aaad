package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"gpmetis"
	"gpmetis/internal/server"
)

// remoteArgs bundles the CLI flags the daemon client forwards. bases
// holds one URL for -server and the whole member list for -cluster; the
// client submits to the first base and fails over down the list when a
// node is unreachable.
type remoteArgs struct {
	bases           []string
	path            string
	k               int
	algo            string
	ub              float64
	seed            int64
	faults          string
	faultSeed       int64
	degrade, verify bool
	traceOut        string
	prof            profileArgs
	retries         int    // re-submissions after a 429 before giving up
	tenant          string // fair-queueing tenant ("" = daemon default)
	deadlineMs      int64  // job deadline forwarded for admission control
}

// nodeUnreachableError marks a failure the client may heal by failing
// over to another ring member: a refused/reset connection, or the
// daemon's typed 502 saying the job's owning node is unreachable.
// Because submissions are content-addressed and deduplicated, a fresh
// submit to the next base is cheap — it lands on the ring successor and
// either hits the cache or restarts the work exactly once.
type nodeUnreachableError struct{ err error }

func (e *nodeUnreachableError) Error() string { return e.err.Error() }
func (e *nodeUnreachableError) Unwrap() error { return e.err }

// runRemote submits the graph to a gpmetisd daemon, polls the job to a
// terminal state, and returns the result in the same shape as a local
// run. Queue overload (HTTP 429, code "overloaded") is reported as a
// retryable error; a canceled or failed job becomes an error carrying
// the daemon's reason. With -cluster, an unreachable node advances to
// the next base with a fresh submit; polls stay pinned to the base that
// accepted the job.
func runRemote(a remoteArgs) (*outcome, error) {
	text, err := os.ReadFile(a.path)
	if err != nil {
		return nil, err
	}
	format := "metis"
	if strings.HasSuffix(a.path, ".gr") {
		format = "gr"
	}
	req := server.SubmitRequest{
		Graph:      string(text),
		Format:     format,
		K:          a.k,
		Algo:       a.algo,
		Seed:       a.seed,
		UB:         a.ub,
		Faults:     a.faults,
		FaultSeed:  a.faultSeed,
		Degrade:    a.degrade,
		Verify:     a.verify,
		Profile:    a.prof.enabled,
		Tenant:     a.tenant,
		DeadlineMs: a.deadlineMs,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var lastErr error
	var prevDelay time.Duration
	for i, base := range a.bases {
		oc, err := runRemoteOn(base, a, body)
		if err == nil {
			return oc, nil
		}
		var nu *nodeUnreachableError
		if !errors.As(err, &nu) {
			return nil, err
		}
		lastErr = err
		if i+1 < len(a.bases) {
			// Decorrelated jitter before the next base, mirroring the 429
			// Retry-After path: a dead entry node must not make every
			// client of the ring resubmit to the same successor in
			// lockstep.
			prevDelay = failoverDelay(prevDelay)
			fmt.Fprintf(os.Stderr, "gpmetis: %s unreachable (%v); failing over to %s in %v\n",
				base, err, a.bases[i+1], prevDelay.Round(time.Millisecond))
			retrySleep(prevDelay)
		}
	}
	if len(a.bases) == 1 {
		return nil, lastErr
	}
	return nil, fmt.Errorf("all %d cluster nodes unreachable; last error: %w", len(a.bases), lastErr)
}

// runRemoteOn runs one submit-poll-fetch cycle against a single base.
func runRemoteOn(base string, a remoteArgs, body []byte) (*outcome, error) {
	st, err := submitJob(base, body, a.retries)
	if err != nil {
		return nil, err
	}

	for st.State == server.StateQueued || st.State == server.StateRunning {
		time.Sleep(100 * time.Millisecond)
		resp, err := http.Get(base + "/jobs/" + st.ID)
		if err != nil {
			return nil, &nodeUnreachableError{fmt.Errorf("poll %s: %w", base, err)}
		}
		if st, err = decodeJob(resp); err != nil {
			return nil, err
		}
	}
	switch st.State {
	case server.StateDone:
	case server.StateCanceled:
		return nil, fmt.Errorf("job %s was canceled: %s", st.ID, st.Error)
	default:
		return nil, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	if st.Result == nil {
		return nil, fmt.Errorf("job %s is done but carries no result", st.ID)
	}

	// A cluster cache peek answers with a bare result and no job ID;
	// there is no job whose trace or profile could be fetched.
	if a.traceOut != "" && st.ID != "" {
		if err := fetchTrace(base, st.ID, a.traceOut); err != nil {
			return nil, err
		}
	}
	if a.prof.enabled && st.ID != "" {
		rep, err := fetchProfile(base, st.ID)
		if err != nil {
			return nil, err
		}
		if err := a.prof.emit(rep); err != nil {
			return nil, err
		}
	}

	algoName := a.algo
	if parsed, err := parseAlgo(a.algo); err == nil {
		algoName = parsed.String()
	}
	return &outcome{
		Input:          a.path,
		Algo:           algoName,
		K:              a.k,
		EdgeCut:        st.Result.EdgeCut,
		Imbalance:      st.Result.Imbalance,
		ModeledSeconds: st.Result.ModeledSeconds,
		FaultEvents:    st.Result.FaultEvents,
		Degraded:       st.Result.Degraded,
		DegradedReason: st.Result.DegradedReason,
		Server:         base,
		JobID:          st.ID,
		Cached:         st.Cached,
		part:           st.Result.Part,
	}, nil
}

// retrySleep is the backoff clock, a seam for the retry test.
var retrySleep = time.Sleep

// retryBudget caps the refused submit attempts in a row, whatever
// -retries allows: once the daemon has refused this many, the client
// stops re-submitting instead of feeding an overloaded daemon more
// retries.
const retryBudget = 4

// submitJob posts the job to the daemon. A retryable rejection — any
// 429 (queue full, tenant quota, rate limit), or a 503 whose code is
// "draining" or "cluster_unreachable" — is retried up to retries times
// with exponential backoff, honoring the daemon's Retry-After as the
// floor and adding jitter so a herd of overloaded clients does not
// re-stampede in lockstep. Other 503 codes are terminal. The retry
// budget ends the loop after retryBudget refusals in a row.
func submitJob(base string, body []byte, retries int) (server.JobStatus, error) {
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return server.JobStatus{}, &nodeUnreachableError{fmt.Errorf("submit to %s: %w", base, err)}
		}
		if resp.StatusCode != http.StatusTooManyRequests &&
			resp.StatusCode != http.StatusServiceUnavailable {
			return decodeJob(resp)
		}
		floor := parseRetryAfter(resp.Header.Get("Retry-After"))
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e) // best effort; an empty code still retries
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable &&
			e.Code != server.CodeDraining && e.Code != server.CodeClusterUnreachable {
			return server.JobStatus{}, fmt.Errorf("daemon rejected the job (%s): %s", e.Code, e.Error)
		}
		if attempt+1 >= retryBudget {
			return server.JobStatus{}, fmt.Errorf(
				"retry budget exhausted: daemon refused %d consecutive submissions (%s); backing off for good",
				attempt+1, e.Code)
		}
		if attempt >= retries {
			if e.Code == server.CodeOverloaded || e.Code == "" {
				return server.JobStatus{}, fmt.Errorf("daemon overloaded (queue full), retry later: %s", e.Error)
			}
			return server.JobStatus{}, fmt.Errorf("daemon rejected the job (%s): %s", e.Code, e.Error)
		}
		d := retryDelay(attempt, floor)
		why := "overloaded"
		if e.Code != "" {
			why = e.Code
		}
		fmt.Fprintf(os.Stderr, "gpmetis: daemon %s; retrying in %v (%d/%d)\n",
			why, d.Round(time.Millisecond), attempt+1, retries)
		retrySleep(d)
	}
}

// clusterBases parses the -cluster flag: a comma-separated member list,
// each entry a host:port or URL; the scheme defaults to http.
func clusterBases(list string) []string {
	var bases []string
	for _, h := range strings.Split(list, ",") {
		h = strings.TrimSpace(h)
		if h == "" {
			continue
		}
		if !strings.Contains(h, "://") {
			h = "http://" + h
		}
		bases = append(bases, strings.TrimRight(h, "/"))
	}
	return bases
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header;
// anything else (HTTP-date, garbage, absent) falls back to 0.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// failoverDelay spaces cluster failover attempts with decorrelated
// jitter: each delay is drawn uniformly from [base, min(cap, 3*prev)],
// so consecutive failovers spread out without ever stalling a healthy
// ring walk for long. Pass the previous delay (0 on the first failover).
func failoverDelay(prev time.Duration) time.Duration {
	const (
		base = 50 * time.Millisecond
		max  = 2 * time.Second
	)
	if prev < base {
		prev = base
	}
	hi := 3 * prev
	if hi > max {
		hi = max
	}
	return base + time.Duration(rand.Int63n(int64(hi-base)+1))
}

// retryDelay doubles a base delay per attempt and adds up to 50%
// jitter. The server's Retry-After (when present) replaces the default
// base, so the jittered result never undercuts the server's floor.
func retryDelay(attempt int, floor time.Duration) time.Duration {
	base := 500 * time.Millisecond
	if floor > 0 {
		base = floor
	}
	if attempt > 6 {
		attempt = 6 // cap the exponent; with the default base this is 32s
	}
	d := base << uint(attempt)
	return d + time.Duration(rand.Int63n(int64(d/2)+1))
}

// decodeJob reads a job status or translates the daemon's typed error.
func decodeJob(resp *http.Response) (server.JobStatus, error) {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			return server.JobStatus{}, fmt.Errorf("daemon returned HTTP %d", resp.StatusCode)
		}
		if e.Code == server.CodeOverloaded {
			return server.JobStatus{}, fmt.Errorf("daemon overloaded (queue full), retry later: %s", e.Error)
		}
		if e.Code == server.CodeNodeUnreachable {
			return server.JobStatus{}, &nodeUnreachableError{fmt.Errorf("daemon reports owning node unreachable: %s", e.Error)}
		}
		return server.JobStatus{}, fmt.Errorf("daemon rejected the job (%s): %s", e.Code, e.Error)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// fetchProfile downloads the job's kernel-profile report from the daemon.
func fetchProfile(base, id string) (*gpmetis.ProfileReport, error) {
	resp, err := http.Get(base + "/jobs/" + id + "/profile")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile download: HTTP %d", resp.StatusCode)
	}
	var rep gpmetis.ProfileReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("profile download: %w", err)
	}
	return &rep, nil
}

// fetchTrace downloads the job's Chrome trace JSON from the daemon.
func fetchTrace(base, id, path string) error {
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace download: HTTP %d", resp.StatusCode)
	}
	return writeFile(path, func(w *bufio.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	})
}
