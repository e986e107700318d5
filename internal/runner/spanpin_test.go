package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// spanPins digest every output of span verification (Options.VerifySpans)
// per configuration: the journal's per-replication span fields and the
// phase.* entries of its telemetry snapshot, the estimate's span_check and
// Result.SpanCheck — through Estimate and through Compare against the same
// model at a 60-minute interval, at two seeds. The tolerance tests
// (TestVerifySpans*) accept any agreement within round-off; these pins
// hold the span-derived numbers themselves bit for bit, so a change to how
// spans are folded into the window cannot move them unnoticed.
var spanPins = map[string]string{
	"base":               "1865bdc308c5e9883d7a95feba1bc00415dc23c6adff81df90a6fa52af16474d",
	"error-propagation":  "3d7d48d1ee0a6838a57684c5cf2ff75c305ff703c96806f90dbf51f3da1361ce",
	"timeout":            "93173318137552069d5309a3fd64fa3f2c80c88c86d72af71112e95c6dd08dd8",
	"max-of-n":           "de67177f12e253ac422a2f7ea2efdfe867b6d90ed5864164ab3e4725e399e2db",
	"no-buffer+blocking": "b2d61dfd6a36e79c766e8d14f02493f1b22c03e10f3a30bbedcfc5a8225ece9c",
}

// spanPinConfig resolves a pinned configuration: a catalog scenario, or
// the base model with both storage ablations on.
func spanPinConfig(t *testing.T, name string) cluster.Config {
	t.Helper()
	if name == "no-buffer+blocking" {
		cfg := cluster.Default()
		cfg.NoBufferedRecovery = true
		cfg.BlockingCheckpointWrite = true
		return cfg
	}
	sc, err := scenario.Builtin().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.ClusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// spanDigestJournal writes the span-verification fields of every journal
// record to w: the per-replication span fields with the phase.* telemetry
// entries, and the estimate's span_check. Floats go through %v of the
// decoded JSON, which is the shortest round-trip form — full precision.
func spanDigestJournal(t *testing.T, w *strings.Builder, journal []byte) {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch rec["kind"] {
		case "replication":
			fmt.Fprintf(w, "rep %v %v span=%v delta=%v rollbacks=%v hours=%v\n", rec["label"], rec["rep"],
				rec["span_useful_fraction"], rec["span_delta"], rec["rollbacks"], rec["phase_hours"])
			sim, _ := rec["sim"].(map[string]any)
			var names []string
			for name := range sim {
				if strings.HasPrefix(name, "phase.") {
					names = append(names, name)
				}
			}
			if len(names) == 0 {
				t.Fatalf("replication record carries no phase.* telemetry: %s", line)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(w, "  %s=%v\n", name, sim[name])
			}
		case "estimate":
			fmt.Fprintf(w, "estimate %v span_check=%v\n", rec["label"], rec["span_check"])
		}
	}
}

// TestSpanVerificationPinned runs one worker so the merged registry is
// not involved at all; the journal's snapshots are per replication.
func TestSpanVerificationPinned(t *testing.T) {
	names := make([]string, 0, len(spanPins))
	for name := range spanPins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := spanPinConfig(t, name)
		alt := cfg
		alt.CheckpointInterval = cluster.Minutes(60)
		var w strings.Builder
		for _, seed := range []uint64{1, 2} {
			opts := Options{
				Replications: 3, Warmup: 300, Measure: 2000, Seed: seed, Workers: 1,
				VerifySpans: true,
			}
			var est bytes.Buffer
			o := opts
			o.Journal = obs.NewJournal(&est)
			res, err := Estimate(cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&w, "seed %d estimate %#v\n", seed, *res.SpanCheck)
			spanDigestJournal(t, &w, est.Bytes())

			var cmp bytes.Buffer
			o = opts
			o.Journal = obs.NewJournal(&cmp)
			c, err := Compare(cfg, alt, o)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&w, "seed %d compare %#v %#v\n", seed, *c.A.SpanCheck, *c.B.SpanCheck)
			spanDigestJournal(t, &w, cmp.Bytes())
		}
		sum := sha256.Sum256([]byte(w.String()))
		if got := hex.EncodeToString(sum[:]); got != spanPins[name] {
			t.Errorf("%s: span outputs sha256 %s, pinned %s", name, got, spanPins[name])
		}
	}
}
