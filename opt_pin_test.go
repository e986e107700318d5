package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// optimalSearchPins digest each candidate search's full result. The
// interval search runs at seed 0, so the pin also covers how a search
// defaults its root seed before deriving the candidates' seeds.
var optimalSearchPins = map[string]string{
	"processors": "4b25ce454eddb616bc4b385b1fb6f96dd80a259ecabd688182fe4e0ccc344228",
	"interval":   "54ab8d01027cb8a131582e3e8920bb5b767f24c071bdd7eb7177056bba6f3d54",
	"timeout":    "6d72684096d6b7f51806be15abfbe0a54075d2c87ffa9759f9dab28617215a9f",
}

func TestOptimalSearchPinned(t *testing.T) {
	o := Options{Replications: 3, Warmup: 50, Measure: 400, Seed: 4}
	base := DefaultConfig()
	base.Processors = 16384
	searches := map[string]func() (OptimumSearch, error){
		"processors": func() (OptimumSearch, error) {
			return OptimalProcessors(DefaultConfig(), []int{16384, 65536, 262144}, o)
		},
		"interval": func() (OptimumSearch, error) {
			z := o
			z.Seed = 0
			return OptimalInterval(base, []float64{0.25, 1, 4}, z)
		},
		"timeout": func() (OptimumSearch, error) {
			return OptimalTimeout(base, []float64{20.0 / 3600, 120.0 / 3600, 0}, o)
		},
	}
	for name, run := range searches {
		s, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", s)))
		if got := hex.EncodeToString(sum[:]); got != optimalSearchPins[name] {
			t.Errorf("%s search sha256 %s, pinned %s", name, got, optimalSearchPins[name])
		}
	}
}
