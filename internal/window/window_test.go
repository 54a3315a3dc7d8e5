package window

import (
	"fmt"
	"testing"
	"time"

	"shbf/internal/core"
)

func memSpec(g int) core.Spec {
	return core.Spec{Kind: core.KindWindowMembership, M: 1 << 14, K: 8, Seed: 7, Generations: g}
}

func multSpec(g int) core.Spec {
	return core.Spec{Kind: core.KindWindowMultiplicity, M: 1 << 15, K: 4, C: 57, Seed: 7,
		Generations: g, CounterWidth: 8}
}

func assocSpec(g int) core.Spec {
	return core.Spec{Kind: core.KindWindowAssociation, M: 1 << 14, K: 4, Seed: 7, Generations: g}
}

func keysOf(prefix string, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s-%06d", prefix, i))
	}
	return keys
}

// TestMembershipExpiry pins the window contract: a key stays
// answerable for G−1 rotations after its insert tick and is gone after
// G.
func TestMembershipExpiry(t *testing.T) {
	const g = 4
	w, err := NewMembership(memSpec(g))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("flow-under-test")
	w.Add(key)
	for r := 0; r < g-1; r++ {
		if !w.Contains(key) {
			t.Fatalf("key lost after %d rotations, want it live through %d", r, g-1)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if !w.Contains(key) {
		t.Fatalf("key lost after %d rotations, want it live until the %dth", g-1, g)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.Contains(key) {
		t.Fatalf("key still answerable after %d rotations", g)
	}
	if w.Epoch() != g {
		t.Fatalf("epoch %d after %d rotations", w.Epoch(), g)
	}
}

// TestMembershipRefreshOutlivesRotation: re-adding a key each tick
// keeps it alive indefinitely — the streaming "seen recently" use.
func TestMembershipRefreshOutlivesRotation(t *testing.T) {
	w, err := NewMembership(memSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("live-flow")
	for tick := 0; tick < 10; tick++ {
		w.Add(key)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
		if !w.Contains(key) {
			t.Fatalf("refreshed key lost at tick %d", tick)
		}
	}
}

// TestMembershipBatchEqualsScalarAcrossRotations: ContainsAll answers
// exactly as the scalar loop, including for keys straddling rotation
// boundaries.
func TestMembershipBatchEqualsScalarAcrossRotations(t *testing.T) {
	const g = 3
	w, err := NewMembership(memSpec(g))
	if err != nil {
		t.Fatal(err)
	}
	var probes [][]byte
	for tick := 0; tick < 2*g; tick++ {
		batch := keysOf(fmt.Sprintf("tick%d", tick), 200)
		if err := w.AddAll(batch); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, batch[:50]...)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	probes = append(probes, keysOf("never", 200)...)
	dst := w.ContainsAll(nil, probes)
	if len(dst) != len(probes) {
		t.Fatalf("ContainsAll returned %d answers for %d keys", len(dst), len(probes))
	}
	for i, e := range probes {
		if dst[i] != w.Contains(e) {
			t.Fatalf("key %d: batch %v, scalar %v", i, dst[i], w.Contains(e))
		}
	}
}

// TestMembershipRecycleClearsInPlace: rotation reuses the retired
// generation's array rather than reallocating, both in a constructed
// ring and in one restored by UnmarshalBinary.
func TestMembershipRecycleClearsInPlace(t *testing.T) {
	built, err := NewMembership(memSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	built.AddAll(keysOf("r", 50))
	if err := built.Rotate(); err != nil {
		t.Fatal(err)
	}
	built.AddAll(keysOf("s", 50))
	blob, err := built.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := new(Membership)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Membership{built, restored} {
		retired := w.rot.At(1)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
		if w.rot.Head() != retired {
			t.Fatal("membership rotation did not recycle the retired generation in place")
		}
		if w.rot.Head().N() != 0 {
			t.Fatal("recycled head is not empty")
		}
	}
}

// TestRotateIfDue: the wall-clock policy arms on first call, rotates
// once per elapsed tick, and is inert at tick 0.
func TestRotateIfDue(t *testing.T) {
	spec := memSpec(3)
	spec.Tick = time.Minute
	w, err := NewMembership(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0)
	if due, _ := w.RotateIfDue(base); due {
		t.Fatal("first call must arm the clock, not rotate")
	}
	if due, _ := w.RotateIfDue(base.Add(30 * time.Second)); due {
		t.Fatal("rotated before a full tick elapsed")
	}
	if due, _ := w.RotateIfDue(base.Add(61 * time.Second)); !due {
		t.Fatal("did not rotate after a full tick")
	}
	if w.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", w.Epoch())
	}

	fixed, err := NewMembership(memSpec(3)) // Tick 0: explicit rotation only
	if err != nil {
		t.Fatal(err)
	}
	if due, _ := fixed.RotateIfDue(base.Add(time.Hour)); due {
		t.Fatal("tick-0 window rotated on the clock")
	}
}

// TestMultiplicityWindowCounts: counts sum across generations, expire
// with their generation, and never underestimate.
func TestMultiplicityWindowCounts(t *testing.T) {
	const g = 3
	w, err := NewMultiplicity(multSpec(g))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("elephant-flow")
	// 2 packets per tick for g ticks: in-window count stays 2g−2..2g
	// as old ticks roll off.
	for tick := 0; tick < g; tick++ {
		for p := 0; p < 2; p++ {
			if err := w.Insert(key); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := w.Count(key), 2*(tick+1); got < want {
			t.Fatalf("tick %d: count %d underestimates true %d", tick, got, want)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	// The stream stops. The loop above already rotated g times, so the
	// oldest tick's packets are gone: g−1 ticks of 2 packets remain,
	// and each further rotation forgets one more tick.
	for tick := 0; tick < g; tick++ {
		want := 2 * max(g-1-tick, 0)
		if got := w.Count(key); got < want {
			t.Fatalf("drain tick %d: count %d underestimates live %d", tick, got, want)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Count(key); got != 0 {
		t.Fatalf("count %d after full expiry, want 0", got)
	}

	// Delete undoes an in-tick insert only.
	if err := w.Insert(key); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete(key); err != nil {
		t.Fatal(err)
	}
	if got := w.Count(key); got != 0 {
		t.Fatalf("count %d after insert+delete, want 0", got)
	}
	if err := w.Delete(key); err == nil {
		t.Fatal("deleting a key absent from the head generation must fail")
	}
}

// TestMultiplicityBatchEqualsScalar across rotations.
func TestMultiplicityBatchEqualsScalar(t *testing.T) {
	w, err := NewMultiplicity(multSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOf("flow", 300)
	for tick := 0; tick < 4; tick++ {
		if err := w.AddAll(keys[:200]); err != nil {
			t.Fatal(err)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	dst := w.CountAll(nil, keys)
	for i, e := range keys {
		if dst[i] != w.Count(e) {
			t.Fatalf("key %d: batch %d, scalar %d", i, dst[i], w.Count(e))
		}
	}
}

// TestAssociationWindow: region answers union across generations and
// expire by rotation.
func TestAssociationWindow(t *testing.T) {
	const g = 3
	w, err := NewAssociation(assocSpec(g))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("migrating-key")
	if err := w.InsertS1(key); err != nil {
		t.Fatal(err)
	}
	r := w.Query(key)
	if !r.InS1() || r == core.RegionNone {
		t.Fatalf("fresh S1 insert answers %s", r)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	// The key moves to S2 in a later tick: the window's union answer
	// must include both candidate memberships.
	if err := w.InsertS2(key); err != nil {
		t.Fatal(err)
	}
	r = w.Query(key)
	if !r.Contains(core.RegionS1Only) || !r.Contains(core.RegionS2Only) {
		t.Fatalf("straddling key answers %s, want S1 and S2 candidates", r)
	}
	// After g more rotations with no refresh, everything expires.
	for i := 0; i < g; i++ {
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Query(key); got != core.RegionNone {
		t.Fatalf("expired key answers %s, want none", got)
	}

	// Batch ≡ scalar.
	keys := keysOf("ak", 200)
	for i, e := range keys[:120] {
		var err error
		if i%2 == 0 {
			err = w.InsertS1(e)
		} else {
			err = w.InsertS2(e)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	dst := w.QueryAll(nil, keys)
	for i, e := range keys {
		if dst[i] != w.Query(e) {
			t.Fatalf("key %d: batch %s, scalar %s", i, dst[i], w.Query(e))
		}
	}
}

// TestSpecRoundTrip: Spec() reconstructs an equivalent empty window
// for every typed kind.
func TestSpecRoundTrip(t *testing.T) {
	m, err := NewMembership(memSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	want := memSpec(4)
	want.MaxOffset = core.DefaultMaxOffset // Spec() reports the resolved default
	if got := m.Spec(); got != want {
		t.Fatalf("membership spec %+v, want %+v", got, want)
	}
	x, err := NewMultiplicity(multSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Spec(); got != multSpec(2) {
		t.Fatalf("multiplicity spec %+v, want %+v", got, multSpec(2))
	}
	a, err := NewAssociation(assocSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	// CShBF_A reports its resolved counter width; normalize and
	// compare the rest.
	got := a.Spec()
	if got.CounterWidth == 0 {
		t.Fatal("association spec lost the resolved counter width")
	}
	got.CounterWidth = 0
	wantA := assocSpec(5)
	wantA.MaxOffset = core.DefaultMaxOffset
	if got != wantA {
		t.Fatalf("association spec %+v, want %+v", got, wantA)
	}
}

// TestConstructionRejectsBadSpecs: wrong kind, missing generations,
// negative tick.
func TestConstructionRejectsBadSpecs(t *testing.T) {
	if _, err := NewMembership(core.Spec{Kind: core.KindMembership, M: 1024, K: 4}); err == nil {
		t.Fatal("accepted a non-window kind")
	}
	s := memSpec(1)
	if _, err := NewMembership(s); err == nil {
		t.Fatal("accepted Generations = 1")
	}
	s = memSpec(4)
	s.Tick = -time.Second
	if _, err := NewMembership(s); err == nil {
		t.Fatal("accepted a negative tick")
	}
	if _, err := NewMultiplicity(assocSpec(3)); err == nil {
		t.Fatal("multiplicity constructor accepted an association spec")
	}
}

// TestWindowInfo: Info reports the ring newest-to-oldest with the head
// first.
func TestWindowInfo(t *testing.T) {
	spec := memSpec(3)
	spec.Tick = 2 * time.Second
	w, err := NewMembership(spec)
	if err != nil {
		t.Fatal(err)
	}
	w.AddAll(keysOf("a", 100))
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	w.AddAll(keysOf("b", 10))
	in := w.Window()
	if in.Generations != 3 || in.Epoch != 1 || in.Tick != 2*time.Second {
		t.Fatalf("info %+v", in)
	}
	if len(in.PerGeneration) != 3 {
		t.Fatalf("per-generation entries %d", len(in.PerGeneration))
	}
	if in.PerGeneration[0].N != 10 || in.PerGeneration[1].N != 100 || in.PerGeneration[2].N != 0 {
		t.Fatalf("per-generation Ns %+v, want head-first [10 100 0]", in.PerGeneration)
	}
}
