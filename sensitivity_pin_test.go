package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// sensitivityPins digest Sensitivity's full analysis, keyed by SyncReport.
// They were recorded while every parameter still ran a runner.Compare that
// re-simulated the base configuration as its leg A; the analysis that
// simulates the base once and folds the per-replication differences
// reproduces them.
var sensitivityPins = map[bool]string{
	false: "9339672e2ae0f42c208df5cff78926f89f163f99c641e6876821c971f5af7861",
	true:  "6c192ed85ebaa2ce253b737fc33586226f3caa4ebe0956cbc6939633d267161a",
}

func TestSensitivityPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processors = 8192
	for _, sync := range []bool{false, true} {
		a, err := Sensitivity(cfg, 1.5, Options{
			Replications: 3, Warmup: 50, Measure: 400, Seed: 4, SyncReport: sync,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", a)))
		if got := hex.EncodeToString(sum[:]); got != sensitivityPins[sync] {
			t.Errorf("SyncReport %v: analysis sha256 %s, pinned %s", sync, got, sensitivityPins[sync])
		}
	}
}
