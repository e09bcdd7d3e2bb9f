// The JSONL event log: one JSON object per line, appendable and tailable,
// so a future coordinator or caserve can follow a run without touching its
// stdout. Event kinds: run_start, point_start, point_done, trials (batched
// commit counter), store_flush, run_done. Point events are emitted only
// by the trial executor's calling goroutine, in point order, so they are
// strictly sequential even when the pool completes trials out of order.
package obs

import (
	"encoding/json"
	"io"
	"time"
)

// event is the wire form of one log line. Fields are per-kind; Point is a
// pointer so point 0 survives omitempty.
type event struct {
	Ev     string    `json:"ev"`
	T      time.Time `json:"t"`
	Run    string    `json:"run,omitempty"`
	Tool   string    `json:"tool,omitempty"`
	Engine string    `json:"engine,omitempty"`
	Point  *int      `json:"point,omitempty"`
	Label  string    `json:"label,omitempty"`
	Done   int       `json:"done,omitempty"`
	Warm   int       `json:"warm,omitempty"`
	Trials int       `json:"trials,omitempty"`

	Records int `json:"records,omitempty"`
	Bytes   int `json:"bytes,omitempty"`

	WallNanos int64  `json:"wallNanos,omitempty"`
	Error     string `json:"error,omitempty"`
}

// eventLog serializes events onto one writer. Callers already hold r.mu, so
// no extra locking. emit drops write errors, so a failing event stream never
// stops a run midway; but the commands write through a buffer that keeps its
// first error, and the session reports that error at teardown, so
// "cabench -events /dev/full" prints its sweep and then exits 1 with
// "cabench: write /dev/full: no space left on device".
type eventLog struct {
	w io.Writer

	lastTrials     time.Time
	everTrialsSent bool
}

func (l *eventLog) emit(ev event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	l.w.Write(append(data, '\n'))
}

// trialsEventEvery batches the per-commit counter events: one "trials" line
// per interval, not per trial.
const trialsEventEvery = time.Second

// maybeTrialsEventLocked emits a batched trial-commit counter event when
// enough time has passed since the last one. Caller holds r.mu.
func (r *Rec) maybeTrialsEventLocked() {
	l := r.events
	if l == nil {
		return
	}
	now := r.now()
	if l.everTrialsSent && now.Sub(l.lastTrials) < trialsEventEvery {
		return
	}
	l.lastTrials = now
	l.everTrialsSent = true
	l.emit(event{Ev: "trials", T: now, Done: r.done, Warm: r.warm, Trials: r.planned})
}
