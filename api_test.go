package shbf_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"shbf"
)

// specs returns one constructible Spec per Kind, keyed by kind.
func specs() []shbf.Spec {
	return []shbf.Spec{
		{Kind: shbf.KindMembership, M: 4096, K: 6, Seed: 7},
		{Kind: shbf.KindCountingMembership, M: 4096, K: 6, Seed: 7, CounterWidth: 8},
		{Kind: shbf.KindTShift, M: 4096, K: 6, T: 2, Seed: 7},
		{Kind: shbf.KindAssociation, M: 4096, K: 4, Seed: 7},
		{Kind: shbf.KindCountingAssociation, M: 4096, K: 4, Seed: 7},
		{Kind: shbf.KindMultiAssociation, M: 4096, K: 4, G: 3, Seed: 7},
		{Kind: shbf.KindMultiplicity, M: 4096, K: 4, C: 57, Seed: 7},
		{Kind: shbf.KindCountingMultiplicity, M: 4096, K: 4, C: 57, Seed: 7},
		{Kind: shbf.KindSCMSketch, M: 1024, K: 4, Seed: 7},
		{Kind: shbf.KindShardedMembership, M: 1 << 16, K: 6, Shards: 4, Seed: 7},
		{Kind: shbf.KindShardedAssociation, M: 1 << 16, K: 4, Shards: 4, Seed: 7},
		{Kind: shbf.KindShardedMultiplicity, M: 1 << 17, K: 4, C: 57, Shards: 4, Seed: 7},
		{Kind: shbf.KindWindowMembership, M: 4096, K: 6, Generations: 3, Seed: 7},
		{Kind: shbf.KindWindowAssociation, M: 4096, K: 4, Generations: 3, Seed: 7},
		{Kind: shbf.KindWindowMultiplicity, M: 4096, K: 4, C: 57, Generations: 3, Seed: 7},
		{Kind: shbf.KindWindowShardedMembership, M: 1 << 16, K: 6, Shards: 4, Generations: 3,
			Tick: time.Minute, Seed: 7},
		{Kind: shbf.KindWindowShardedAssociation, M: 1 << 16, K: 4, Shards: 4, Generations: 3, Seed: 7},
		{Kind: shbf.KindWindowShardedMultiplicity, M: 1 << 17, K: 4, C: 57, Shards: 4, Generations: 3, Seed: 7},
	}
}

// TestNewConstructsEveryKind is the acceptance gate for the spec-driven
// constructor: every Kind builds, reports its own Kind, and reports a
// Spec that reconstructs an identical empty filter.
func TestNewConstructsEveryKind(t *testing.T) {
	for _, spec := range specs() {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			f, err := shbf.New(spec)
			if err != nil {
				t.Fatalf("New(%+v): %v", spec, err)
			}
			if f.Kind() != spec.Kind {
				t.Fatalf("Kind() = %s, want %s", f.Kind(), spec.Kind)
			}
			back := f.Spec()
			if back.Kind != spec.Kind {
				t.Fatalf("Spec().Kind = %s, want %s", back.Kind, spec.Kind)
			}
			twin, err := shbf.New(back)
			if err != nil {
				t.Fatalf("New(f.Spec() = %+v): %v", back, err)
			}
			if twin.Spec() != back {
				t.Fatalf("spec did not round-trip: %+v vs %+v", twin.Spec(), back)
			}
			// Empty twins serialize identically: same geometry, same
			// seed, same (empty) arrays.
			b1, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := twin.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Fatal("empty filter and its spec-reconstructed twin serialize differently")
			}
			st := f.Stats()
			if st.Kind != spec.Kind {
				t.Fatalf("Stats().Kind = %s, want %s", st.Kind, spec.Kind)
			}
			if st.SizeBytes <= 0 {
				t.Fatalf("Stats().SizeBytes = %d, want > 0", st.SizeBytes)
			}
		})
	}
}

// TestInterfaceConformance pins which query surfaces each Kind
// presents, so an accidental method-set change breaks loudly.
func TestInterfaceConformance(t *testing.T) {
	conformance := map[shbf.Kind]string{
		shbf.KindMembership:           "set",
		shbf.KindCountingMembership:   "contains,updatable,adder",
		shbf.KindTShift:               "set",
		shbf.KindAssociation:          "associator",
		shbf.KindCountingAssociation:  "associator",
		shbf.KindMultiAssociation:     "",
		shbf.KindMultiplicity:         "counter",
		shbf.KindCountingMultiplicity: "counter,updatable,adder",
		shbf.KindSCMSketch:            "adder",
		shbf.KindShardedMembership:    "set",
		shbf.KindShardedAssociation:   "associator",
		shbf.KindShardedMultiplicity:  "counter,updatable,adder",

		// The window kinds present their base kind's surface plus the
		// rotation interface (checked separately below).
		shbf.KindWindowMembership:          "set,windowed",
		shbf.KindWindowAssociation:         "associator,windowed",
		shbf.KindWindowMultiplicity:        "counter,updatable,adder,windowed",
		shbf.KindWindowShardedMembership:   "set,windowed",
		shbf.KindWindowShardedAssociation:  "associator,windowed",
		shbf.KindWindowShardedMultiplicity: "counter,updatable,adder,windowed",
	}
	for _, spec := range specs() {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			f, err := shbf.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := conformance[spec.Kind]
			check := func(name string, ok bool) {
				if has := strings.Contains(want, name); ok != has {
					t.Errorf("%s conformance to %s = %v, want %v", spec.Kind, name, ok, has)
				}
			}
			_, isSet := f.(shbf.Set)
			_, isUpd := f.(shbf.Updatable)
			_, isCnt := f.(shbf.Counter)
			_, isAssoc := f.(shbf.Associator)
			_, isAdder := f.(shbf.Adder)
			_, isWin := f.(shbf.Windowed)
			check("set", isSet)
			check("updatable", isUpd)
			check("counter", isCnt)
			check("associator", isAssoc)
			check("windowed", isWin)
			// Set implies Adder; only check the standalone tag.
			if !isSet {
				check("adder", isAdder)
			}
		})
	}
}

// TestSpecRejectsMisappliedFields: geometry fields outside a kind's
// vocabulary are construction errors, not silent no-ops.
func TestSpecRejectsMisappliedFields(t *testing.T) {
	bad := []shbf.Spec{
		{Kind: shbf.KindMembership, M: 4096, K: 6, C: 57},                          // C on membership
		{Kind: shbf.KindMembership, M: 4096, K: 6, T: 2},                           // T outside tshift
		{Kind: shbf.KindMultiplicity, M: 4096, K: 4, C: 8, G: 3},                   // G outside multi-association
		{Kind: shbf.KindMembership, M: 4096, K: 6, Shards: 4},                      // Shards on monolithic kind
		{Kind: shbf.KindShardedMembership, M: 1 << 16, K: 6},                       // sharded kind without Shards
		{Kind: 0, M: 4096, K: 6},                                                   // invalid kind
		{Kind: shbf.KindMembership, M: 4096, K: 6, Generations: 3},                 // Generations on non-window kind
		{Kind: shbf.KindMembership, M: 4096, K: 6, Tick: time.Second},              // Tick on non-window kind
		{Kind: shbf.KindWindowMembership, M: 4096, K: 6},                           // window kind without Generations
		{Kind: shbf.KindWindowMembership, M: 4096, K: 6, Generations: 1},           // ring too short
		{Kind: shbf.KindWindowMembership, M: 4096, K: 6, Generations: 3, T: 2},     // T outside tshift
		{Kind: shbf.KindWindowShardedMembership, M: 1 << 16, K: 6, Generations: 3}, // sharded window without Shards
	}
	for _, spec := range bad {
		if _, err := shbf.New(spec); err == nil {
			t.Errorf("New(%+v) accepted a misapplied spec", spec)
		}
	}
}

// TestOptionsRejectedPerKind: options a kind's constructor does not
// consume are errors naming the option, not silent no-ops.
func TestOptionsRejectedPerKind(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"unsafe-on-membership", errOf(shbf.NewMembership(4096, 6, shbf.WithUnsafeUpdates())), "WithUnsafeUpdates"},
		{"counterwidth-on-membership", errOf(shbf.NewMembership(4096, 6, shbf.WithCounterWidth(8))), "WithCounterWidth"},
		{"maxoffset-on-multiplicity", errOf(shbf.NewMultiplicity(4096, 4, 57, shbf.WithMaxOffset(31))), "WithMaxOffset"},
		{"unsafe-on-counting-membership", errOf(shbf.NewCountingMembership(4096, 6, shbf.WithUnsafeUpdates())), "WithUnsafeUpdates"},
		{"maxoffset-on-scm", errOf(shbf.NewSCMSketch(4, 1024, shbf.WithMaxOffset(31))), "WithMaxOffset"},
		{"counterwidth-on-sharded-membership", errOf(shbf.NewShardedMembership(1<<16, 6, 4, shbf.WithCounterWidth(8))), "WithCounterWidth"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.err == nil {
				t.Fatal("misapplied option accepted")
			}
			if !strings.Contains(c.err.Error(), c.want) {
				t.Fatalf("error %q does not name the option %s", c.err, c.want)
			}
		})
	}
	// The options still work where they apply.
	if _, err := shbf.NewCountingMultiplicity(4096, 4, 57, shbf.WithUnsafeUpdates(), shbf.WithCounterWidth(8)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if _, err := shbf.NewMembership(4096, 6, shbf.WithMaxOffset(31), shbf.WithSeed(3)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestCounterWidthRange: a counter width outside [1, 64] is a
// construction error naming the range on every kind with counters,
// through the Spec and through the option (where 0 is not "unset"),
// not a panic or a division by zero; both ends of the range build.
func TestCounterWidthRange(t *testing.T) {
	for _, tc := range []struct {
		spec  shbf.Spec
		build func(shbf.Option) error
	}{
		{shbf.Spec{Kind: shbf.KindCountingAssociation, M: 4096, K: 4},
			func(o shbf.Option) error { return errOf(shbf.NewCountingAssociation(4096, 4, o)) }},
		{shbf.Spec{Kind: shbf.KindCountingMultiplicity, M: 4096, K: 4, C: 57},
			func(o shbf.Option) error { return errOf(shbf.NewCountingMultiplicity(4096, 4, 57, o)) }},
		{shbf.Spec{Kind: shbf.KindCountingMembership, M: 4096, K: 6},
			func(o shbf.Option) error { return errOf(shbf.NewCountingMembership(4096, 6, o)) }},
		{shbf.Spec{Kind: shbf.KindSCMSketch, M: 1024, K: 4},
			func(o shbf.Option) error { return errOf(shbf.NewSCMSketch(4, 1024, o)) }},
	} {
		kind := tc.spec.Kind
		if err := tc.build(shbf.WithCounterWidth(0)); err == nil || !strings.Contains(err.Error(), "out of range [1, 64]") {
			t.Errorf("%s with WithCounterWidth(0): err %v, want the range named", kind, err)
		}
		for _, w := range []uint{65, 99} {
			spec := tc.spec
			spec.CounterWidth = w
			if _, err := shbf.New(spec); err == nil || !strings.Contains(err.Error(), "out of range [1, 64]") {
				t.Errorf("%s with CounterWidth %d: err %v, want the range named", kind, w, err)
			}
		}
		for _, w := range []uint{1, 64} {
			spec := tc.spec
			spec.CounterWidth = w
			if _, err := shbf.New(spec); err != nil {
				t.Errorf("%s with CounterWidth %d: %v", kind, w, err)
			}
		}
	}
}

func errOf[F any](_ F, err error) error { return err }

// TestSpecSeedZeroRoundTrips: zero is a valid seed, honored exactly —
// a filter built with WithSeed(0) reconstructs from its own Spec with
// the same hash functions (it must not fall back to the package
// default seed).
func TestSpecSeedZeroRoundTrips(t *testing.T) {
	f, err := shbf.NewMembership(4096, 6, shbf.WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	f.Add([]byte("zero-seeded"))
	twin, err := shbf.New(f.Spec())
	if err != nil {
		t.Fatal(err)
	}
	tw := twin.(*shbf.Membership)
	tw.Add([]byte("zero-seeded"))
	b1, _ := f.MarshalBinary()
	b2, _ := tw.MarshalBinary()
	if string(b1) != string(b2) {
		t.Fatal("Spec round trip changed the seed-0 hash functions")
	}
}

// TestParseKind round-trips every kind name.
func TestParseKind(t *testing.T) {
	for _, spec := range specs() {
		k, err := shbf.ParseKind(spec.Kind.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", spec.Kind.String(), err)
		}
		if k != spec.Kind {
			t.Fatalf("ParseKind(%q) = %s", spec.Kind.String(), k)
		}
	}
	if _, err := shbf.ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted bogus name")
	}
}

// TestBatchEqualsScalar: every batch path answers exactly as the
// scalar loop it replaces.
func TestBatchEqualsScalar(t *testing.T) {
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("element-%04d", i))
	}
	members, probes := keys[:250], keys

	t.Run("membership", func(t *testing.T) {
		f, err := shbf.NewMembership(8192, 6, shbf.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddAll(members); err != nil {
			t.Fatal(err)
		}
		got := f.ContainsAll(nil, probes)
		for i, e := range probes {
			if got[i] != f.Contains(e) {
				t.Fatalf("ContainsAll[%d] = %v, Contains = %v", i, got[i], f.Contains(e))
			}
		}
	})

	t.Run("sharded-membership", func(t *testing.T) {
		f, err := shbf.NewShardedMembership(1<<16, 6, 8, shbf.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddAll(members); err != nil {
			t.Fatal(err)
		}
		got := f.ContainsAll(nil, probes)
		for i, e := range probes {
			if got[i] != f.Contains(e) {
				t.Fatalf("ContainsAll[%d] = %v, Contains = %v", i, got[i], f.Contains(e))
			}
		}
		// Reusing dst must not reallocate or change answers.
		again := f.ContainsAll(got, probes)
		for i := range again {
			if again[i] != got[i] {
				t.Fatal("dst reuse changed answers")
			}
		}
	})

	t.Run("sharded-multiplicity", func(t *testing.T) {
		f, err := shbf.NewShardedMultiplicity(1<<17, 4, 57, 8, shbf.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddAll(members); err != nil {
			t.Fatal(err)
		}
		if err := f.AddAll(members[:100]); err != nil {
			t.Fatal(err)
		}
		got := f.CountAll(nil, probes)
		for i, e := range probes {
			if got[i] != f.Count(e) {
				t.Fatalf("CountAll[%d] = %d, Count = %d", i, got[i], f.Count(e))
			}
		}
	})

	t.Run("sharded-association", func(t *testing.T) {
		a, err := shbf.NewShardedAssociation(1<<16, 4, 8, shbf.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range members[:150] {
			if err := a.InsertS1(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range members[100:] {
			if err := a.InsertS2(e); err != nil {
				t.Fatal(err)
			}
		}
		got := a.QueryAll(nil, probes)
		for i, e := range probes {
			if got[i] != a.Query(e) {
				t.Fatalf("QueryAll[%d] = %v, Query = %v", i, got[i], a.Query(e))
			}
		}
	})

	t.Run("counting-multiplicity", func(t *testing.T) {
		f, err := shbf.NewCountingMultiplicity(16384, 4, 57, shbf.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddAll(members); err != nil {
			t.Fatal(err)
		}
		got := f.CountAll(nil, probes)
		for i, e := range probes {
			if got[i] != f.Count(e) {
				t.Fatalf("CountAll[%d] = %d, Count = %d", i, got[i], f.Count(e))
			}
		}
	})
}
