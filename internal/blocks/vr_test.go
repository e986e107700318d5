package blocks

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func vrCells(reps int) []Cell {
	return []Cell{{Label: "c0", Seed: 11, Replications: reps, Config: cluster.Default()}}
}

// Antithetic planning: every pair shares one seed, pairs sit at even
// offsets, and consecutive pairs draw distinct seeds from the cell root.
func TestPlanAntitheticSeedPairing(t *testing.T) {
	m, err := Plan(vrCells(8), PlanOptions{Name: "vr", BlockSize: 8, VR: VRAntithetic})
	if err != nil {
		t.Fatal(err)
	}
	seeds := m.Blocks[0].Seeds
	if len(seeds) != 8 {
		t.Fatalf("planned %d seeds", len(seeds))
	}
	half := ReplicationSeeds(11, 4)
	for k := 0; k < 4; k++ {
		if seeds[2*k] != half[k] || seeds[2*k+1] != half[k] {
			t.Fatalf("pair %d seeds (%d, %d), want both %d", k, seeds[2*k], seeds[2*k+1], half[k])
		}
	}
	if err := m.validate(); err != nil {
		t.Fatalf("planned manifest fails validation: %v", err)
	}
}

// An odd block size would split pairs across blocks; the planner rounds it
// up, and the resulting blocks all start on even replication offsets.
func TestPlanAntitheticEvenizesBlockSize(t *testing.T) {
	m, err := Plan(vrCells(10), PlanOptions{Name: "vr", BlockSize: 3, VR: VRAntithetic})
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockSize != 4 {
		t.Fatalf("block size = %d, want 4", m.BlockSize)
	}
	for _, b := range m.Blocks {
		if b.RepStart%2 != 0 || len(b.Seeds)%2 != 0 {
			t.Fatalf("block %d splits a pair: start %d, %d seeds", b.ID, b.RepStart, len(b.Seeds))
		}
	}
}

func TestPlanAntitheticRejectsOddReplications(t *testing.T) {
	if _, err := Plan(vrCells(7), PlanOptions{Name: "vr", VR: VRAntithetic}); err == nil {
		t.Fatal("odd replication count accepted under antithetic VR")
	}
	if _, err := Plan(vrCells(4), PlanOptions{Name: "vr", VR: "bogus"}); err == nil {
		t.Fatal("unknown VR mode accepted")
	}
}

// Plain manifests must keep their pre-VR bytes: the vr field is omitted
// entirely, so content hashes of existing plans are unchanged.
func TestPlainManifestOmitsVRField(t *testing.T) {
	plain, err := Plan(vrCells(4), PlanOptions{Name: "sweep", BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"vr":`) {
		t.Fatalf("plain manifest serialises a vr field: %s", data)
	}
	anti, err := Plan(vrCells(4), PlanOptions{Name: "sweep", BlockSize: 2, VR: VRAntithetic})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hash == anti.Hash {
		t.Fatal("antithetic plan hashes identically to the plain plan")
	}
}

// A corrupted antithetic manifest — a pair split across blocks or with
// mismatched seeds — must fail validation loudly.
func TestValidateRejectsSplitPairs(t *testing.T) {
	m, err := Plan(vrCells(4), PlanOptions{Name: "vr", BlockSize: 4, VR: VRAntithetic})
	if err != nil {
		t.Fatal(err)
	}
	broken := *m
	broken.Blocks = append([]Block(nil), m.Blocks...)
	seeds := append([]uint64(nil), m.Blocks[0].Seeds...)
	seeds[1] = seeds[1] + 1
	broken.Blocks[0] = Block{ID: 0, CellIndex: 0, RepStart: 0, Seeds: seeds}
	broken.Hash = broken.computeHash()
	if err := broken.validate(); err == nil {
		t.Fatal("mismatched pair seeds passed validation")
	}
}

// Completion replications have no reflected leg, so an antithetic
// completion plan would run each (s, s) seed pair as two identical
// replications and report an interval narrower than the data supports.
// Plan refuses it, and so does validation of a manifest built by hand.
func TestCompletionRejectsAntithetic(t *testing.T) {
	opts := PlanOptions{Name: "job", Kind: KindCompletion, Work: 100, VR: VRAntithetic}
	if _, err := Plan(vrCells(4), opts); err == nil || !strings.Contains(err.Error(), "reflected leg") {
		t.Fatalf("antithetic completion plan accepted: %v", err)
	}
	opts.VR = VRNone
	m, err := Plan(vrCells(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	paired := *m
	paired.VR = VRAntithetic
	paired.Blocks = []Block{{ID: 0, CellIndex: 0, Seeds: PairedReplicationSeeds(11, 4)}}
	paired.Hash = paired.computeHash()
	if err := paired.validate(); err == nil || !strings.Contains(err.Error(), "reflected leg") {
		t.Fatalf("antithetic completion manifest passed validation: %v", err)
	}
	anti, err := Plan(vrCells(4), PlanOptions{Name: "sweep", VR: VRAntithetic})
	if err != nil {
		t.Fatalf("antithetic estimate plan rejected: %v", err)
	}
	if err := anti.validate(); err != nil {
		t.Fatalf("antithetic estimate manifest fails validation: %v", err)
	}
}
