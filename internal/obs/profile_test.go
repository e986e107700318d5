package obs

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// gunzipAll decompresses a pprof profile (gzipped protobuf) end to end —
// the strongest structural check available without a protobuf decoder: the
// gzip framing, checksum and length trailer must all be intact.
func gunzipAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: not gzip (pprof profiles are gzipped proto): %v", path, err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: corrupt gzip stream: %v", path, err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("%s: gzip checksum: %v", path, err)
	}
	return out
}

func TestProfileCaptureCommitsParseableProfiles(t *testing.T) {
	dir := t.TempDir()
	p := NewProfileCapture(ProfileCaptureOptions{
		Dir:    dir,
		Prefix: "worker-a",
		Window: 50 * time.Millisecond,
		Meta:   map[string]string{"git_sha": "abc123"},
	})
	if !p.Trigger("unit test") {
		t.Fatal("first Trigger refused")
	}
	// A second trigger while the window is open must be debounced.
	if p.Trigger("too soon") {
		t.Fatal("concurrent Trigger accepted")
	}
	p.Wait()

	infos, err := ReadProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("ReadProfiles = %d captures, want 1", len(infos))
	}
	info := infos[0]
	if info.Prefix != "worker-a" || info.Seq != 1 || info.Reason != "unit test" {
		t.Fatalf("manifest wrong: %+v", info)
	}
	if info.UnixMS == 0 || info.WallMS < 50 {
		t.Fatalf("capture timing wrong: %+v", info)
	}
	if !strings.Contains(string(info.Meta), "abc123") {
		t.Fatalf("meta not stamped: %s", info.Meta)
	}
	want := map[string]bool{
		"worker-a-001-cpu.pprof":       false,
		"worker-a-001-heap.pprof":      false,
		"worker-a-001-goroutine.pprof": false,
	}
	for _, f := range info.Files {
		if _, ok := want[f]; ok {
			want[f] = true
		}
	}
	for f, seen := range want {
		if !seen {
			t.Fatalf("capture lacks %s (files: %v)", f, info.Files)
		}
	}
	// The pprof files must be parseable (intact gzipped proto).
	for _, f := range []string{"worker-a-001-cpu.pprof", "worker-a-001-heap.pprof", "worker-a-001-goroutine.pprof"} {
		if body := gunzipAll(t, filepath.Join(dir, f)); len(body) == 0 {
			t.Fatalf("%s decompressed to nothing", f)
		}
	}
	// No temp droppings survive a clean capture.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("orphan temp file %s", e.Name())
		}
	}
}

func TestProfileCaptureBudget(t *testing.T) {
	dir := t.TempDir()
	p := NewProfileCapture(ProfileCaptureOptions{
		Dir: dir, Window: time.Millisecond, NoCPU: true, MaxCaptures: 2,
	})
	for i := 0; i < 2; i++ {
		if !p.Trigger("capture") {
			t.Fatalf("trigger %d refused inside budget", i+1)
		}
		p.Wait()
	}
	if p.Trigger("over budget") {
		t.Fatal("budget not enforced")
	}
	if p.Captures() != 2 {
		t.Fatalf("Captures = %d", p.Captures())
	}
	infos, err := ReadProfiles(dir)
	if err != nil || len(infos) != 2 {
		t.Fatalf("ReadProfiles = %d, %v", len(infos), err)
	}
	if infos[0].Seq != 1 || infos[1].Seq != 2 {
		t.Fatalf("sequence order wrong: %+v", infos)
	}
}

func TestProfileCaptureNilSafe(t *testing.T) {
	var p *ProfileCapture
	if p.Trigger("nil") {
		t.Fatal("nil capture triggered")
	}
	p.Wait()
	if p.Captures() != 0 {
		t.Fatal("nil capture counted")
	}
}

func TestReadProfilesMissingDir(t *testing.T) {
	infos, err := ReadProfiles(filepath.Join(t.TempDir(), "nope"))
	if err != nil || infos != nil {
		t.Fatalf("missing dir: %v, %v", infos, err)
	}
}

// Every triggers periodic captures until stopped; stop waits out the
// in-flight capture and no capture starts after it.
func TestProfileCaptureEvery(t *testing.T) {
	dir := t.TempDir()
	p := NewProfileCapture(ProfileCaptureOptions{
		Dir: dir, Window: time.Millisecond, NoCPU: true, MaxCaptures: -1,
	})
	stop := p.Every(time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for p.Captures() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	n := p.Captures()
	if n < 2 {
		t.Fatalf("Captures = %d after 10s of 1ms ticks", n)
	}
	time.Sleep(5 * time.Millisecond)
	if p.Captures() != n {
		t.Fatalf("captures went on after stop: %d → %d", n, p.Captures())
	}
	infos, err := ReadProfiles(dir)
	if err != nil || len(infos) != n {
		t.Fatalf("ReadProfiles = %d, %v; want all %d committed by stop", len(infos), err, n)
	}
	for _, info := range infos {
		if info.Reason != "periodic" {
			t.Fatalf("capture reason %q", info.Reason)
		}
	}
	// No interval, or no capturer: stop only waits.
	p.Every(0)()
	var nilp *ProfileCapture
	nilp.Every(time.Millisecond)()
}
