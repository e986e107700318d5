package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	events := []Event{
		{Time: 0.5, Activity: "checkpoint_trigger"},
		{Time: 0.51, Activity: "dump_chkpt", Marking: map[string]int{"execution": 1}},
		{Time: 1.2, Activity: "comp_failure"},
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("read %d events", len(back))
	}
	if back[1].Marking["execution"] != 1 {
		t.Fatal("marking lost in round trip")
	}
	if back[2].Activity != "comp_failure" || back[2].Time != 1.2 {
		t.Fatalf("event corrupted: %+v", back[2])
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want EOF", err)
	}
}

func TestReaderBadJSON(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("{broken")); err == nil {
		t.Fatal("broken JSON accepted")
	}
}

// TestReaderMalformedInput pins the hardened reader's behavior: malformed
// or truncated NDJSON yields a line-numbered error, while blank lines and
// surrounding whitespace are tolerated.
func TestReaderMalformedInput(t *testing.T) {
	good := `{"t":1,"activity":"a"}`
	cases := []struct {
		name    string
		input   string
		events  int    // events successfully read before the error/EOF
		errLine string // substring the error must contain; "" = clean EOF
	}{
		{"empty stream", "", 0, ""},
		{"only newlines", "\n\n\n", 0, ""},
		{"blank lines between events", good + "\n\n" + good + "\n", 2, ""},
		{"leading whitespace", "   " + good + "\n", 1, ""},
		{"no trailing newline", good, 1, ""},
		{"partial last line", good + "\n" + `{"t":2,"activ`, 1, "line 2"},
		{"partial only line", `{"t":1,"ac`, 0, "line 1"},
		{"bad JSON mid-stream", good + "\n" + "not json\n" + good + "\n", 1, "line 2"},
		{"wrong type", `{"t":"late","activity":"a"}` + "\n", 0, "line 1"},
		{"trailing garbage on line", good + ` {"t":2}` + "\n", 0, "line 1"},
		{"error after blank lines", "\n\n{bad\n", 0, "line 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tc.input))
			var got int
			var err error
			for {
				_, err = r.Next()
				if err != nil {
					break
				}
				got++
			}
			if got != tc.events {
				t.Errorf("read %d events, want %d", got, tc.events)
			}
			if tc.errLine == "" {
				if err != io.EOF {
					t.Errorf("err = %v, want clean EOF", err)
				}
				return
			}
			if err == io.EOF {
				t.Fatalf("want error containing %q, got clean EOF", tc.errLine)
			}
			if !strings.Contains(err.Error(), tc.errLine) {
				t.Errorf("err %q does not name the offending line %q", err, tc.errLine)
			}
		})
	}
}

// TestReaderTruncatedMarking: a trace cut mid-marking (the common "disk
// filled up" failure) reports the truncation instead of silently dropping
// the tail.
func TestReaderTruncatedMarking(t *testing.T) {
	full := `{"t":1,"activity":"a","marking":{"execution":1}}`
	truncated := full + "\n" + full[:len(full)-9]
	_, err := ReadAll(strings.NewReader(truncated))
	if err == nil {
		t.Fatal("truncated stream accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("unhelpful truncation error: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Time: 1, Activity: "a"},
		{Time: 2, Activity: "b"},
		{Time: 3, Activity: "a"},
	}
	s := Summarize(events)
	if s.Counts["a"] != 2 || s.Counts["b"] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
	if s.End != 3 {
		t.Fatalf("end = %v", s.End)
	}
	empty := Summarize(nil)
	if len(empty.Counts) != 0 || empty.End != 0 {
		t.Fatal("empty summary wrong")
	}
}

// TestTruncatedIsSentinel: crash-aware consumers (the resumable sweep
// engine's -resume path) distinguish a torn final line from genuinely
// malformed input with errors.Is, so a crashed writer's trace is redone
// rather than treated as corrupt.
func TestTruncatedIsSentinel(t *testing.T) {
	full := `{"t":1,"activity":"a"}`
	_, err := ReadAll(strings.NewReader(full + "\n" + `{"t":2,"activ`))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn line error = %v, want errors.Is(_, ErrTruncated)", err)
	}
	// Structurally bad JSON is NOT a truncation — it must stay a hard error.
	_, err = ReadAll(strings.NewReader(`{"t":"not-a-number","activity":7}`))
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("malformed line error = %v, want hard non-truncation error", err)
	}
}
