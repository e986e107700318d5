package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The protocol pins: a digest of SimulateProtocol's summaries over tree
// shapes, timeouts and seeds, and of examples/protocol's stdout. They were
// recorded while protocol.Round still ordered the per-node quiesce draws
// through a des.Engine, so the sorted fold that replaced it draws, orders
// and breaks ties exactly as the event queue did.

const (
	protocolSummariesPin = "2704866975b66c5df3dc663ebe92f04ddad43a9093d035ffe00766773ff25d66"
	protocolExamplePin   = "7a43dbdc740448121261358f259e31bc09d953e4abad887e2c1d49af5d095228"
)

func TestSimulateProtocolPinned(t *testing.T) {
	h := sha256.New()
	for _, procs := range []int{64, 8192} {
		for _, fanout := range []int{2, 4, 16} {
			for _, timeout := range []float64{0, Seconds(30)} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := DefaultConfig()
					cfg.Processors = procs
					cfg.Timeout = timeout
					sum, err := SimulateProtocol(cfg, fanout, Seconds(0.001), 50, seed)
					if err != nil {
						t.Fatal(err)
					}
					// %#v prints every float of the accumulator at full
					// precision.
					fmt.Fprintf(h, "%d %d %v %d %#v\n", procs, fanout, timeout, seed, sum)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != protocolSummariesPin {
		t.Errorf("protocol summaries sha256 %s, pinned %s", got, protocolSummariesPin)
	}
}

func TestProtocolExampleOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs examples/protocol")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./examples/protocol")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	checkDigest(t, "examples/protocol stdout", runTool(t, filepath.Join(bin, "protocol")), protocolExamplePin)
}
