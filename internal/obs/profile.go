package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// ProfileCapture is active self-profiling: a postmortem that arrives with
// its own explanation. Trigger arms one bounded capture window — a CPU
// profile over the window, then heap and goroutine profiles at its end —
// and commits every file atomically (AtomicWrite) into the capture
// directory, beside the heartbeats of a
// distributed run. A JSON capture manifest is committed last, so a
// manifest on disk implies every profile it names is complete.
//
// Captures run on their own goroutine; Trigger never blocks the caller and
// at most one capture is in flight at a time. MaxCaptures bounds total
// disk: a wedged worker that keeps tripping the straggler trigger cannot
// fill the run directory.
type ProfileCapture struct {
	o ProfileCaptureOptions

	mu   sync.Mutex
	busy bool
	seq  int
	wg   sync.WaitGroup
}

// ProfileCaptureOptions configures a ProfileCapture.
type ProfileCaptureOptions struct {
	// Dir receives the profile files; created on first capture.
	Dir string
	// Prefix names the capture files ("<prefix>-NNN-cpu.pprof", ...);
	// usually the worker name. Default "profile". Path separators are
	// flattened, as in heartbeat file names.
	Prefix string
	// Window is how long the CPU profile runs. Default 2s.
	Window time.Duration
	// NoCPU skips the CPU profile — e.g. when the process already runs
	// one globally. Heap and goroutine profiles are always captured: they
	// are instantaneous and explain memory stragglers the CPU profile
	// cannot.
	NoCPU bool
	// MaxCaptures bounds how many captures one process may write.
	// Default 4; negative means unlimited.
	MaxCaptures int
	// Meta is stamped into the capture manifest (typically a
	// provenance.Stamp), so a profile file can always answer "which
	// binary, which machine, which config produced you".
	Meta any
	// Log, when non-nil, receives one line per capture event.
	Log func(format string, args ...any)
}

func (o ProfileCaptureOptions) withDefaults() ProfileCaptureOptions {
	if o.Prefix == "" {
		o.Prefix = "profile"
	}
	o.Prefix = strings.Map(func(r rune) rune {
		if r == '/' || r == '\\' || r == 0 {
			return '_'
		}
		return r
	}, o.Prefix)
	if o.Window <= 0 {
		o.Window = 2 * time.Second
	}
	if o.MaxCaptures == 0 {
		o.MaxCaptures = 4
	}
	return o
}

// ProfileInfo is one committed capture, as recorded by its manifest
// ("<prefix>-NNN.profile.json").
type ProfileInfo struct {
	Prefix string `json:"prefix"`
	Seq    int    `json:"seq"`
	// Reason says what armed the capture ("periodic", "events_per_sec
	// 1200 below trailing band 5400", ...).
	Reason string `json:"reason"`
	// UnixMS is when the capture window opened; WallMS its total length.
	UnixMS int64   `json:"unix_ms"`
	WallMS float64 `json:"wall_ms"`
	// Files are the committed profile file names (base names, same
	// directory as the manifest).
	Files []string `json:"files"`
	// Meta is the capture-time metadata (a provenance stamp, typically).
	Meta json.RawMessage `json:"meta,omitempty"`
}

// NewProfileCapture returns an armed-but-idle capturer. The directory is
// not touched until the first Trigger.
func NewProfileCapture(o ProfileCaptureOptions) *ProfileCapture {
	return &ProfileCapture{o: o.withDefaults()}
}

// Trigger arms one capture and returns immediately. It reports false when
// a capture is already in flight or the MaxCaptures budget is spent — the
// caller needs no debouncing of its own.
func (p *ProfileCapture) Trigger(reason string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	if p.busy || (p.o.MaxCaptures >= 0 && p.seq >= p.o.MaxCaptures) {
		p.mu.Unlock()
		return false
	}
	p.busy = true
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() {
			p.mu.Lock()
			p.busy = false
			p.mu.Unlock()
		}()
		if err := p.capture(seq, reason); err != nil {
			p.logf("profile capture %d failed: %v", seq, err)
		}
	}()
	return true
}

// Wait blocks until any in-flight capture has committed. Call before
// process exit so the last capture is not torn. Nil-safe.
func (p *ProfileCapture) Wait() {
	if p == nil {
		return
	}
	p.wg.Wait()
}

// Every triggers a "periodic" capture at each tick of interval (none when
// interval ≤ 0) until the returned stop func is called, once. Stop halts
// the ticker and its goroutine, then waits out any in-flight capture, so
// call it before process exit. Nil-safe.
func (p *ProfileCapture) Every(interval time.Duration) (stop func()) {
	if p == nil || interval <= 0 {
		return p.Wait
	}
	tick := time.NewTicker(interval)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-tick.C:
				p.Trigger("periodic")
			case <-done:
				return
			}
		}
	}()
	return func() {
		tick.Stop()
		close(done)
		<-exited
		p.Wait()
	}
}

// Captures returns how many captures have been triggered.
func (p *ProfileCapture) Captures() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq
}

func (p *ProfileCapture) logf(format string, args ...any) {
	if p.o.Log != nil {
		p.o.Log(format, args...)
	}
}

// capture runs one bounded window and commits its files.
func (p *ProfileCapture) capture(seq int, reason string) error {
	start := time.Now()
	if err := os.MkdirAll(p.o.Dir, 0o777); err != nil {
		return err
	}
	p.logf("profile capture %d armed (%s): %v window into %s", seq, reason, p.o.Window, p.o.Dir)
	base := fmt.Sprintf("%s-%03d", p.o.Prefix, seq)
	var files []string
	commit := func(suffix string, write func(f *os.File) error) error {
		name := base + suffix
		if err := AtomicWrite(p.o.Dir, name, write); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		files = append(files, name)
		return nil
	}

	// Window phase: the CPU profile records for Window.
	var cpuErr error
	var cpuTmp *os.File
	if !p.o.NoCPU {
		cpuTmp, cpuErr = os.CreateTemp(p.o.Dir, base+".tmp-*")
		if cpuErr == nil {
			// StartCPUProfile fails if another CPU profile is running
			// (e.g. -debug-addr's /debug/pprof/profile); skip, keep going.
			if err := pprof.StartCPUProfile(cpuTmp); err != nil {
				cpuErr = err
				cpuTmp.Close()
				os.Remove(cpuTmp.Name())
				cpuTmp = nil
			}
		}
	}
	time.Sleep(p.o.Window)
	if cpuTmp != nil {
		pprof.StopCPUProfile()
		if err := commitTemp(cpuTmp, filepath.Join(p.o.Dir, base+"-cpu.pprof")); err != nil {
			cpuErr = err
		} else {
			files = append(files, base+"-cpu.pprof")
		}
	}
	if cpuErr != nil {
		p.logf("profile capture %d: cpu profile skipped: %v", seq, cpuErr)
	}

	// Instant phase: heap (post-GC, so it shows live objects) and
	// goroutine profiles at the end of the window.
	if err := commit("-heap.pprof", func(f *os.File) error {
		runtime.GC()
		return pprof.WriteHeapProfile(f)
	}); err != nil {
		p.logf("profile capture %d: %v", seq, err)
	}
	if err := commit("-goroutine.pprof", func(f *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(f, 0)
	}); err != nil {
		p.logf("profile capture %d: %v", seq, err)
	}

	// Manifest last: its presence certifies the files it names.
	info := ProfileInfo{
		Prefix: p.o.Prefix,
		Seq:    seq,
		Reason: reason,
		UnixMS: start.UnixMilli(),
		WallMS: float64(time.Since(start)) / float64(time.Millisecond),
		Files:  files,
	}
	if p.o.Meta != nil {
		if raw, err := json.Marshal(p.o.Meta); err == nil {
			info.Meta = raw
		}
	}
	err := commit(profileManifestSuffix, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	})
	if err == nil {
		p.logf("profile capture %d committed: %s", seq, strings.Join(files, ", "))
	}
	return err
}

// profileManifestSuffix marks capture manifests; ReadProfiles scans for it.
const profileManifestSuffix = ".profile.json"

// AtomicWrite commits the file name in dir durably: write fills a unique
// temp file beside it, which is then fsynced, closed and renamed into
// place; the temp file is removed on any failure. A reader sees the old
// file or the whole new one, never a torn write.
func AtomicWrite(dir, name string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	return commitTemp(tmp, filepath.Join(dir, name))
}

// commitTemp syncs, closes and renames an open temp file into place.
func commitTemp(tmp *os.File, path string) error {
	name := tmp.Name()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// ReadProfiles lists the committed captures in a profile directory, sorted
// by prefix then sequence. A missing directory is an empty list, not an
// error; torn temp files and unreadable manifests are skipped, because a
// reader (cctop) may race a capture in flight.
func ReadProfiles(dir string) ([]ProfileInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("obs: %w", err)
	}
	var out []ProfileInfo
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), profileManifestSuffix) || strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var info ProfileInfo
		if err := json.Unmarshal(data, &info); err != nil {
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix != out[j].Prefix {
			return out[i].Prefix < out[j].Prefix
		}
		return out[i].Seq < out[j].Seq
	})
	return out, nil
}
