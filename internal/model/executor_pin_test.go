package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/san"
)

// executorPins are the digests TestExecutorTrajectoryDigestsPinned
// expects, keyed "<variant>/<scheduler>/seed<n>". Each covers one fresh
// trajectory and one recycled replay of it: the firing sequence, the
// executor's telemetry, the rate-reward integrals and the event-pool
// numbers. A change to the SAN executor that keeps every trajectory
// bit-identical leaves them alone; a deliberate trajectory change
// re-records them (run the test with -v and copy the printed digests).
var executorPins = map[string]string{
	"base/incremental/seed3":               "bc81d20ff253b698ecbab74808950e5cf03c19c042c8cb7a29e9e261d39ca682",
	"base/incremental/seed11":              "d72d02ce9fd47efd5eb6706e4781c1667c24ae037b46528e8a4567752d8b6427",
	"base/fullscan/seed3":                  "adb16bbc75eee678adcb6ce49bb62e230044160998a3f3cc4e38afe85c2ceade",
	"base/fullscan/seed11":                 "fba004202ee92763f0fce8a818bb7d0b62c6b4b4a796ca11c1abdfb99e341fba",
	"error-propagation/incremental/seed3":  "929afcb5a8668717c9d9cf43c828778f1ad7744920aadcf4737322757fcc59b3",
	"error-propagation/incremental/seed11": "97fe43fc382f9b7f4a5d70a68d17d1e685b24e7106cf93fb7fca2c2237830db4",
	"error-propagation/fullscan/seed3":     "99a25aecf9d2f70d00ed913464fa69f0d8e9699721cbd9f475a2fdba4b60cc44",
	"error-propagation/fullscan/seed11":    "43ae6f8c563db874921d3b1330594f1f9cf3f186cbe196befb96afa0aa64a96e",
	"timeout/incremental/seed3":            "2e65aba40c2d080aa1ceb3581fc9ad50e62e8a1d87dcea1a72d055f7b19c1248",
	"timeout/incremental/seed11":           "58e18022a4d22cd07443240a7b829141ebc30014e9a267fe0985215c3f7fea72",
	"timeout/fullscan/seed3":               "6452111826addfe8e299efd90421ef3e65d59b958455e8358a357fcc9a0b78e8",
	"timeout/fullscan/seed11":              "f25a6b2188858a14eb980033dddfc3ba933c26ab54434d2168f5f854a13aa433",
	"max-of-n/incremental/seed3":           "0a36cc52721914d340dd78816129ea4076c1712d422dc48772193261780b60de",
	"max-of-n/incremental/seed11":          "5adc6625be6f2e5221119ea699f42980acfcd54edd1882e5dc90db0821223781",
	"max-of-n/fullscan/seed3":              "1e75bc9078151f131be7ba103d676af3af6d2a99ef0b7e6bdb7893315fde09f9",
	"max-of-n/fullscan/seed11":             "5ce90ead3424a93770a1df1dd82a6d9a63d70f2ffd112dd35b100c995946ec34",
}

// TestExecutorTrajectoryDigestsPinned pins what the SAN executor produces
// on the four model variants whose schedules differ most — the base
// model, error propagation (correlated cascades and reactivations),
// timeouts (aborts cancel pending activities) and max-of-n coordination —
// under both the incremental scheduler and the full-scan reference.
func TestExecutorTrajectoryDigestsPinned(t *testing.T) {
	cfgs := differentialConfigs()
	for _, variant := range []string{"base", "error-propagation", "timeout", "max-of-n"} {
		for _, fullScan := range []bool{false, true} {
			for _, seed := range []uint64{3, 11} {
				scheduler := "incremental"
				if fullScan {
					scheduler = "fullscan"
				}
				key := fmt.Sprintf("%s/%s/seed%d", variant, scheduler, seed)
				t.Run(key, func(t *testing.T) {
					got := executorDigest(t, cfgs[variant], seed, fullScan)
					want, ok := executorPins[key]
					if !ok {
						t.Errorf("no pin for %s; digest %s", key, got)
						return
					}
					if got != want {
						t.Errorf("%s digest %s, pinned %s", key, got, want)
					}
				})
			}
		}
	}
}

// executorDigest runs one instrumented trajectory of a fresh build, then
// recycles the instance to the same seed and runs it again, hashing
// everything the executor exposes along the way.
func executorDigest(t *testing.T, cfg cluster.Config, seed uint64, fullScan bool) string {
	t.Helper()
	const warmup, measure = 1000.0, 3000.0
	in, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	in.SetFullScan(fullScan)
	h := sha256.New()
	in.sim.SetTrace(func(tm float64, a *san.Activity, _ *san.Marking) {
		writeFloat(h, tm)
		h.Write([]byte(a.Name))
		h.Write([]byte{0})
	})
	writePool(h, "built", in)
	for _, pass := range []string{"fresh", "recycled"} {
		if pass == "recycled" {
			in.Recycle(seed)
			writePool(h, "recycled", in)
		}
		reg := obs.NewRegistry()
		sh := reg.NewShard()
		in.Instrument(sh)
		if _, err := in.RunSteadyState(warmup, measure); err != nil {
			t.Fatal(err)
		}
		in.FlushEngineStats()
		in.Instrument(nil)
		fmt.Fprintf(h, "%s fired=%d now=%x\n", pass, in.Fired(), math.Float64bits(in.Now()))
		writeTelemetry(h, sh.Snapshot())
		writeFloat(h, in.progress.Integral())
		for _, v := range in.breakdownSnapshot() {
			writeFloat(h, v)
		}
		writePool(h, pass+" run", in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFloat hashes the exact bits of v.
func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// writePool hashes the instance's event-pool numbers.
func writePool(h hash.Hash, label string, in *Instance) {
	hits, misses, size := in.PoolStats()
	fmt.Fprintf(h, "pool %s hits=%d misses=%d size=%d\n", label, hits, misses, size)
}

// writeTelemetry hashes the san.* and des.* counters and histograms of a
// shard snapshot in name order.
func writeTelemetry(h hash.Hash, snap map[string]any) {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%+v\n", name, snap[name])
	}
}
