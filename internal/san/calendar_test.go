package san

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// firingOrder runs m to the horizon under both schedulers and returns the
// "name@time" firing sequence, failing unless the two agree.
func firingOrder(t *testing.T, m *Model, horizon float64) []string {
	t.Helper()
	var orders [2][]string
	for i, fullScan := range []bool{false, true} {
		sim, err := NewSimulator(m, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		sim.FullScan = fullScan
		sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
			orders[i] = append(orders[i], fmt.Sprintf("%s@%v", a.Name, tm))
		})
		sim.RunUntil(horizon)
	}
	if !reflect.DeepEqual(orders[0], orders[1]) {
		t.Fatalf("incremental order %v, full scan %v", orders[0], orders[1])
	}
	return orders[0]
}

// TestTiesFireInSchedulingOrder pins the executor's tie-break: timed
// activities due at the same instant fire in the order they were
// scheduled, not in activity-index order. "high" (index 1) is scheduled
// at t=0 for t=2; "low" (index 0) is scheduled at t=1, also for t=2.
func TestTiesFireInSchedulingOrder(t *testing.T) {
	m := NewModel("ties")
	p0 := m.Place("p0", 0)
	p1 := m.Place("p1", 1)
	ps := m.Place("ps", 1)
	m.AddTimed(Activity{Name: "low", Input: AllOf(p0), Delay: fixed(1),
		Output: Out(func(mk *Marking) { mk.Clear(p0) })})
	m.AddTimed(Activity{Name: "high", Input: AllOf(p1), Delay: fixed(2),
		Output: Out(func(mk *Marking) { mk.Clear(p1) })})
	m.AddTimed(Activity{Name: "start", Input: AllOf(ps), Delay: fixed(1),
		Output: Out(func(mk *Marking) { mk.Move(ps, p0) })})

	want := []string{"start@1", "high@2", "low@2"}
	if got := firingOrder(t, m, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// TestReactivationTakesFreshSequence pins that a reactivated activity is
// rescheduled behind everything already pending: "react" (index 0) is
// first scheduled at t=0, then resampled at t=1 to fire at t=2 — the
// instant "other" (index 1, scheduled at t=0) is due. The resample is a
// new scheduling, so "other" fires first.
func TestReactivationTakesFreshSequence(t *testing.T) {
	m := NewModel("reactivation-tie")
	r := m.Place("r", 1)
	b := m.Place("b", 1)
	tr := m.Place("tr", 1)
	flag := m.Place("flag", 0)
	m.AddTimed(Activity{
		Name:  "react",
		Input: AllOf(r),
		Delay: func(mk *Marking, _ rng.Source) float64 {
			if mk.Has(flag) {
				return 1
			}
			return 10
		},
		Output:       Out(func(mk *Marking) { mk.Clear(r) }),
		ReactivateOn: []*Place{flag},
	})
	m.AddTimed(Activity{Name: "other", Input: AllOf(b), Delay: fixed(2),
		Output: Out(func(mk *Marking) { mk.Clear(b) })})
	m.AddTimed(Activity{Name: "trigger", Input: AllOf(tr), Delay: fixed(1),
		Output: Out(func(mk *Marking) { mk.Move(tr, flag) })})

	want := []string{"trigger@1", "other@2", "react@2"}
	if got := firingOrder(t, m, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// TestInfiniteFiringRateIntegrals steps a net to a firing at t=+Inf. At
// that instant every reward accrues rate×(+Inf − last time): +Inf for a
// positive rate and NaN for a zero one, including a reward whose rate was
// never re-evaluated after t=0. The integrals are those IEEE arithmetic
// gives, NaN included.
func TestInfiniteFiringRateIntegrals(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		t.Run(fmt.Sprintf("fullscan=%v", fullScan), func(t *testing.T) {
			m := NewModel("inf")
			up := m.Place("up", 1)
			down := m.Place("down", 0)
			done := m.Place("done", 0)
			idle := m.Place("idle", 0)
			m.AddTimed(Activity{Name: "finish", Input: AllOf(up), Delay: fixed(1),
				Output: Out(func(mk *Marking) { mk.Move(up, down) })})
			m.AddTimed(Activity{Name: "never", Input: AllOf(down), Delay: fixed(math.Inf(1)),
				Output: Out(func(mk *Marking) { mk.Move(down, done) })})
			sim, err := NewSimulator(m, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			sim.FullScan = fullScan
			weight := func(p *Place, w float64) func(*Marking) float64 {
				return func(mk *Marking) float64 { return w * float64(mk.Get(p)) }
			}
			rewards := []*RateReward{
				sim.AddRateReward("up", weight(up, 1), up),
				sim.AddRateReward("down", weight(down, 2), down),
				sim.AddRateReward("done", weight(done, 3), done),
				sim.AddRateReward("idle", weight(idle, 4), idle),
			}
			integrals := func() []string {
				var out []string
				for _, r := range rewards {
					out = append(out, fmt.Sprint(r.Integral()))
				}
				return out
			}

			if !sim.Step() || sim.Now() != 1 {
				t.Fatalf("first step: now %v", sim.Now())
			}
			if got, want := integrals(), []string{"1", "0", "0", "0"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("integrals at t=1: %v, want %v", got, want)
			}
			if !sim.Step() || !math.IsInf(sim.Now(), 1) {
				t.Fatalf("second step: now %v", sim.Now())
			}
			want := []string{"NaN", "+Inf", "NaN", "NaN"}
			if got := integrals(); !reflect.DeepEqual(got, want) {
				t.Fatalf("integrals at t=+Inf: %v, want %v", got, want)
			}
			sim.RunUntil(math.Inf(1))
			if got := integrals(); !reflect.DeepEqual(got, want) {
				t.Fatalf("integrals after RunUntil(+Inf): %v, want %v", got, want)
			}
			if sim.Step() || sim.Fired() != 2 {
				t.Fatalf("fired %d, want 2 and an empty calendar", sim.Fired())
			}
		})
	}
}

// TestCalendarMatchesReferenceScan drives random schedule, cancel, fire
// and reset sequences through the calendar and through a brute-force
// reference: a plain slice of pending firings, scanned in full for the
// lowest (due, seq) at every fire, with the event pool of a pooled heap
// modelled as a count of events ever allocated (a reset keeps them, a
// schedule reuses a free one when there is one). The calendar must match
// the reference's pop order, clock, pending count, counters and pool
// numbers after every operation. The delays repeat often enough to force
// ties, and +Inf delays drive the clock to +Inf, where every later firing
// ties.
func TestCalendarMatchesReferenceScan(t *testing.T) {
	const slots = 8
	delays := []float64{0, 0.5, 1, 1, 2, math.Inf(1)}
	for seed := uint64(1); seed <= 25; seed++ {
		src := rng.New(seed)
		pick := func(n int) int { return int(src.Uint64() % uint64(n)) }
		cal := newCalendar(slots)
		type firing struct {
			slot int
			due  float64
			seq  uint64
		}
		var (
			ref                         []firing
			refNow                      float64
			refSeq                      uint64
			fired, scheduled, cancelled uint64
			hits, misses                uint64
			allocated                   int
		)
		refRemove := func(k int) { ref = append(ref[:k], ref[k+1:]...) }
		for op := 0; op < 3000; op++ {
			var what string
			switch u := pick(100); {
			case u < 45:
				i := pick(slots)
				if cal.scheduledAt(i) {
					continue // a slot holds one pending firing
				}
				d := delays[pick(len(delays))]
				what = fmt.Sprintf("schedule %d after %v", i, d)
				cal.schedule(i, cal.now+d)
				if allocated > len(ref) {
					hits++
				} else {
					misses++
					allocated++
				}
				ref = append(ref, firing{i, refNow + d, refSeq})
				refSeq++
				scheduled++
			case u < 65:
				i := pick(slots)
				what = fmt.Sprintf("cancel %d", i)
				cal.cancel(i)
				for k, f := range ref {
					if f.slot == i {
						refRemove(k)
						cancelled++
						break
					}
				}
			case u < 98:
				what = "fire"
				i := cal.next()
				if i >= 0 {
					cal.pop(i)
				}
				best := -1
				for k, f := range ref {
					if best < 0 || f.due < ref[best].due || f.due == ref[best].due && f.seq < ref[best].seq {
						best = k
					}
				}
				want := -1
				if best >= 0 {
					want, refNow = ref[best].slot, ref[best].due
					refRemove(best)
					fired++
				}
				if i != want {
					t.Fatalf("seed %d op %d: calendar fired slot %d, reference scan %d", seed, op, i, want)
				}
			default:
				what = "reset"
				cal.reset()
				ref, refNow, refSeq = ref[:0], 0, 0
				fired, scheduled, cancelled, hits, misses = 0, 0, 0, 0, 0
			}
			calHits, calMisses, size := cal.poolStats()
			got := []any{cal.now, cal.pending(), cal.fired, cal.scheduled, cal.cancelled, calHits, calMisses, size}
			want := []any{refNow, len(ref), fired, scheduled, cancelled, hits, misses, allocated - len(ref)}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d (%s): calendar now/pending/fired/scheduled/cancelled/hits/misses/size %v, reference %v",
					seed, op, what, got, want)
			}
		}
	}
}
