package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// catalogPins digest %#v of every built-in scenario's ClusterConfig, so
// any change to how a config block decodes — a unit, a default, a key —
// shows up as a moved digest, field by field bit-exact.
var catalogPins = map[string]string{
	"adaptive-interval":  "a974e391aaafcd149d9a458132d3217f7add3df74d43f9abc8c5c149b5cd7057",
	"base":               "20c2192d64e4a95228463509a22c1444887413e64425348700f0f4e4232a457b",
	"blocking-write":     "f2292e67a43a8f728428733a8c1d71690caed66fe78a311c6f9cb8e010aba33a",
	"coordination-only":  "c1f22e4e0469232e5063132114f63dea02a9420ae5a3074feb557b66467c0db7",
	"error-propagation":  "61639fa8e698152a2f46111ef8f114705e938dd3bab666590fa41177c7d3dedc",
	"generic-correlated": "7b0c4852964da560566e16907bc8825fc0172ba2baec6d92077efec18d4ba0ba",
	"incremental-ckpt":   "5b70b0fa639db9ec48fe00e5b19a904a4c19ae84a467a8f68675d278d7b34fbf",
	"max-of-n":           "6e98d41644fa7ac11399208c937428dd1885c7d41d758b23e06fe7e565c2217f",
	"migration":          "42064a99899f509628f54ea64608ad17ea49d56042ecd33e80dc1cca35656890",
	"timeout":            "6f2c3277a1211abb93607b4b468089612be32902d0a900fc1ca690b770091260",
	"weibull-field":      "8c626e7e0d0ed05233497078626b5e1ef9d57c26553d88bce0206de135187402",
}

func TestCatalogConfigsPinned(t *testing.T) {
	reg := Builtin()
	for _, name := range reg.Names() {
		s, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.ClusterConfig()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", cfg)))
		if got := hex.EncodeToString(sum[:]); got != catalogPins[name] {
			t.Errorf("%s: config sha256 %s, pinned %s", name, got, catalogPins[name])
		}
	}
	if len(reg.Names()) != len(catalogPins) {
		t.Errorf("catalog has %d scenarios, %d pinned", len(reg.Names()), len(catalogPins))
	}
}
