package obs

import (
	"encoding/json"
	"io"
	"time"
)

// ChromeEvent is one entry of the Chrome trace_event format (the JSON
// consumed by chrome://tracing and Perfetto). The clock is whatever the
// producer chose — modeled microseconds for partition traces, wall-clock
// microseconds for service lifecycle spans; a merged document carries
// both on separate process rows.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ProcessNameEvent labels a pid row in the trace viewer.
func ProcessNameEvent(pid int, name string) ChromeEvent {
	return ChromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
}

// ThreadNameEvent labels a tid row within a pid.
func ThreadNameEvent(pid, tid int, name string) ChromeEvent {
	return ChromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

// WriteChromeJSON serializes events as one Chrome trace_event document.
func WriteChromeJSON(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{DisplayTimeUnit: "ms", TraceEvents: events})
}

// WallEvents renders wall-clock span records as complete ("X") events
// on one pid row (tid 0), timestamps in microseconds after origin. Each
// event's args are the span id, its parent when set, then args (the
// correlation ids every span on the row shares), then the span's own
// attrs. It is the only renderer of wall spans: a job's local trace and
// the ring's stitched trace both go through it.
func WallEvents(spans []SpanRecord, pid int, cat string, origin time.Time, args map[string]any) []ChromeEvent {
	events := make([]ChromeEvent, 0, len(spans))
	for _, sp := range spans {
		a := map[string]any{"span": sp.Span}
		if sp.Parent != 0 {
			a["parent"] = sp.Parent
		}
		for k, v := range args {
			a[k] = v
		}
		for k, v := range sp.Attrs {
			a[k] = v
		}
		events = append(events, ChromeEvent{
			Name: sp.Name,
			Cat:  cat,
			Ph:   "X",
			Ts:   WallUS(origin, sp.Start),
			Dur:  WallUS(sp.Start, sp.End),
			Pid:  pid,
			Args: a,
		})
	}
	return events
}

// WallUS converts a wall instant to microseconds after origin, the
// Chrome trace clock of wall-span rows.
func WallUS(origin, t time.Time) float64 {
	return float64(t.Sub(origin)) / float64(time.Microsecond)
}

// TraceEvents renders the tracer's spans as complete ("X") events under
// the given pid: thread_name metadata per track in order of first
// appearance, then one event per span. Timestamps are the span's modeled
// microseconds shifted by tsOffsetUS, which lets a caller align a modeled
// trace under a wall-clock parent. rootArgs, when non-nil, is merged into
// the args of every root span (ParentID == 0) — the hook the serving
// layer uses to parent the partition trace under its lifecycle run span.
func TraceEvents(t *Tracer, pid int, tsOffsetUS float64, rootArgs map[string]any) []ChromeEvent {
	spans := t.spanCopies()
	events := []ChromeEvent{}

	tids := map[string]int{}
	for _, sp := range spans {
		if _, ok := tids[sp.Track]; !ok {
			tid := len(tids)
			tids[sp.Track] = tid
			events = append(events, ThreadNameEvent(pid, tid, sp.Track))
		}
	}

	for _, sp := range spans {
		args := map[string]any{"span": sp.ID, "parent": sp.ParentID}
		if sp.Aux {
			args["aux"] = true
		}
		for _, a := range sp.attrs {
			args[a.Key] = a.Value()
		}
		cat := "detail"
		if sp.ParentID == 0 {
			cat = "run"
			for k, v := range rootArgs {
				args[k] = v
			}
		}
		events = append(events, ChromeEvent{
			Name: sp.Name,
			Cat:  cat,
			Ph:   "X",
			Ts:   tsOffsetUS + sp.Start*1e6, // modeled seconds -> microseconds
			Dur:  sp.Dur() * 1e6,
			Pid:  pid,
			Tid:  tids[sp.Track],
			Args: args,
		})
	}
	return events
}

// WriteChromeTrace serializes the tracer's spans as a Chrome trace_event
// JSON document. Each span becomes one complete ("X") event; tracks
// become named threads of a single process. Open a written file in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	return WriteChromeJSON(w, TraceEvents(t, 1, 0, nil))
}
