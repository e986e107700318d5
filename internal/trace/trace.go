// Package trace records simulation trajectories as streams of structured
// events (one JSON object per line), for debugging the model and for
// post-processing individual runs — e.g. extracting failure inter-arrival
// times or checkpoint-cycle timelines from a single trajectory.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Event is one activity firing of a trajectory.
type Event struct {
	// Time is the simulation time of the firing, in hours.
	Time float64 `json:"t"`
	// Activity is the SAN activity that fired.
	Activity string `json:"activity"`
	// Marking holds the non-empty places after the firing; omitted when
	// marking capture is disabled.
	Marking map[string]int `json:"marking,omitempty"`
}

// Writer streams events as NDJSON.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps w for event streaming.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one event.
func (w *Writer) Write(ev Event) error {
	if err := w.enc.Encode(ev); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Flush drains the buffer; call once after the last event.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// maxLineBytes bounds a single NDJSON line (4 MiB — far above any real
// event, small enough that a binary file fed in by mistake fails fast).
const maxLineBytes = 4 << 20

// ErrTruncated marks an event cut off mid-object — the signature a crashed
// or killed writer leaves on its final line. Callers that replay traces
// from crash-prone producers (the resumable sweep engine, -resume
// tooling) match it with errors.Is and treat the file as incomplete work
// to redo, instead of aborting on a parse failure.
var ErrTruncated = errors.New("truncated event (partial JSON object — incomplete trace file?)")

// Reader iterates NDJSON events line by line. Malformed input produces a
// line-numbered error rather than a silent stop: bad JSON, trailing bytes
// after an object, and a truncated (unterminated) last line are all
// reported with the 1-based line they occur on. Blank lines are skipped.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps r for event reading.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	return &Reader{sc: sc}
}

// Next returns the next event; io.EOF when the stream ends cleanly.
func (r *Reader) Next() (Event, error) {
	for r.sc.Scan() {
		r.line++
		data := bytes.TrimSpace(r.sc.Bytes())
		if len(data) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return Event{}, fmt.Errorf("trace: line %d: %w", r.line, ErrTruncated)
			}
			return Event{}, fmt.Errorf("trace: line %d: %w", r.line, err)
		}
		if dec.More() {
			return Event{}, fmt.Errorf("trace: line %d: trailing data after event object", r.line)
		}
		return ev, nil
	}
	if err := r.sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return Event{}, fmt.Errorf("trace: line %d: event line exceeds %d bytes (is this an NDJSON trace?)", r.line+1, maxLineBytes)
		}
		return Event{}, fmt.Errorf("trace: line %d: %w", r.line+1, err)
	}
	return Event{}, io.EOF
}

// ReadAll drains the stream into a slice.
func ReadAll(r io.Reader) ([]Event, error) {
	tr := NewReader(r)
	var out []Event
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// Summary aggregates per-activity counts and the trajectory horizon.
type Summary struct {
	// Counts maps activity name to firing count.
	Counts map[string]int
	// End is the time of the last event.
	End float64
}

// Summarize folds an event slice into a Summary.
func Summarize(events []Event) Summary {
	s := Summary{Counts: make(map[string]int)}
	for _, ev := range events {
		s.Counts[ev.Activity]++
		if ev.Time > s.End {
			s.End = ev.Time
		}
	}
	return s
}
