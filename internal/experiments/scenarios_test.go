package experiments

import (
	"testing"

	"repro/internal/cluster"
)

// TestFigureBasesMatchScenarios pins the figure base configurations to
// their pre-registry constructions: routing them through the scenario
// catalog must not change a single field.
func TestFigureBasesMatchScenarios(t *testing.T) {
	if got, want := baseConfig(), cluster.Default(); got != want {
		t.Errorf("baseConfig:\ngot  %+v\nwant %+v", got, want)
	}

	coord := cluster.Default()
	coord.Coordination = cluster.CoordMaxOfN
	coord.MTTFPerNode = cluster.Years(1e12)
	if got := mustScenarioConfig("coordination-only"); got != coord {
		t.Errorf("coordination-only:\ngot  %+v\nwant %+v", got, coord)
	}

	with := cluster.Default()
	with.MTTFPerNode = cluster.Years(3)
	with.CorrelatedFactor = 400
	with.GenericCorrelatedCoefficient = 0.0025
	if got := mustScenarioConfig("generic-correlated"); got != with {
		t.Errorf("generic-correlated:\ngot  %+v\nwant %+v", got, with)
	}
}

func TestMustScenarioConfigPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown scenario")
		}
	}()
	mustScenarioConfig("does-not-exist")
}
