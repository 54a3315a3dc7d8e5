package window

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"shbf/internal/core"
)

// goldenRing is the surface every ring shares, as the golden test
// reads it.
type goldenRing interface {
	Rotate() error
	Spec() core.Spec
	Stats() core.Stats
	Window() Info
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

// TestRingGolden pins each ring's surface on seeded rings after two
// rotations: the ShBW snapshot bytes (sha256), Spec, Stats, Window and
// element counts. The multiplicity ring in the unsafe update mode
// tracks no exact set, so it reads N = −1 in Stats, in every
// generation and in N. A ring restored from the snapshot reads the
// same, and rotating both once more leaves identical bytes, so the
// recycle rule a decoded ring installs matches the constructor's.
// Regenerate only for a deliberate, versioned format change.
func TestRingGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (goldenRing, error)
		empty goldenRing // zero value to decode into
		fill  func(r goldenRing, phase int) error
		want  [5]string
	}{
		{
			name: "Membership",
			build: func() (goldenRing, error) {
				return NewMembership(core.Spec{Kind: core.KindWindowMembership, M: 1 << 14, K: 8,
					Seed: 11, Generations: 2, Tick: 30 * time.Second})
			},
			empty: new(Membership),
			fill:  fillMembership,
			want: [5]string{
				"a69ae163eb6b8fbd2cae5de1e6930ddd57b4a133c9c694460515a88ee660a9e9",
				"{Kind:window-membership M:16384 K:8 C:0 T:0 G:0 Shards:0 Generations:2 Tick:30s Seed:11 CounterWidth:0 MaxOffset:57 UnsafeUpdates:false}",
				"{Kind:window-membership N:900 SizeBytes:4112 FillRatio:0.19513381995133822 Shards:0}",
				"{Generations:2 Epoch:2 Tick:30s PerGeneration:[{N:500 FillRatio:0.21435523114355232} {N:400 FillRatio:0.1759124087591241}]}",
				"N:900",
			},
		},
		{
			name: "Association",
			build: func() (goldenRing, error) {
				return NewAssociation(core.Spec{Kind: core.KindWindowAssociation, M: 1 << 14, K: 6,
					Seed: 12, Generations: 3, Tick: time.Minute})
			},
			empty: new(Association),
			fill:  fillAssociation,
			want: [5]string{
				"a84e42c59a62c740855a74a88edec98a32cb82ba9718a28343ec4a93ce53510f",
				"{Kind:window-association M:16384 K:6 C:0 T:0 G:0 Shards:0 Generations:3 Tick:1m0s Seed:12 CounterWidth:4 MaxOffset:57 UnsafeUpdates:false}",
				"{Kind:window-association N:1299 SizeBytes:30840 FillRatio:0.11441605839416058 Shards:0}",
				"{Generations:3 Epoch:2 Tick:1m0s PerGeneration:[{N:433 FillRatio:0.11344282238442822} {N:433 FillRatio:0.11465936739659367} {N:433 FillRatio:0.11514598540145986}]}",
				"N1:600 N2:699",
			},
		},
		{
			name: "Multiplicity",
			build: func() (goldenRing, error) {
				return NewMultiplicity(core.Spec{Kind: core.KindWindowMultiplicity, M: 1 << 15, K: 4, C: 30,
					Seed: 13, Generations: 2, Tick: 5 * time.Second, CounterWidth: 8})
			},
			empty: new(Multiplicity),
			fill:  fillMultiplicity,
			want: [5]string{
				"8c2ccbf5db968e3f2b4e67c6bac6b829535375c8949b5d16ec294f51a29207bc",
				"{Kind:window-multiplicity M:32768 K:4 C:30 T:0 G:0 Shards:0 Generations:2 Tick:5s Seed:13 CounterWidth:8 MaxOffset:0 UnsafeUpdates:false}",
				"{Kind:window-multiplicity N:600 SizeBytes:73808 FillRatio:0.03594840991554105 Shards:0}",
				"{Generations:2 Epoch:2 Tick:5s PerGeneration:[{N:300 FillRatio:0.03588742872823734} {N:300 FillRatio:0.03600939110284477}]}",
				"N:600",
			},
		},
		{
			name: "MultiplicityUnsafe",
			build: func() (goldenRing, error) {
				return NewMultiplicity(core.Spec{Kind: core.KindWindowMultiplicity, M: 1 << 14, K: 4, C: 20,
					Seed: 14, Generations: 3, CounterWidth: 6, UnsafeUpdates: true})
			},
			empty: new(Multiplicity),
			fill:  fillMultiplicity,
			want: [5]string{
				"254b946ed157447148eb285b64dec37df5d3c158714fe9dac4747b03d144ea77",
				"{Kind:window-multiplicity M:16384 K:4 C:20 T:0 G:0 Shards:0 Generations:3 Tick:0s Seed:14 CounterWidth:6 MaxOffset:0 UnsafeUpdates:true}",
				"{Kind:window-multiplicity N:-1 SizeBytes:43080 FillRatio:0.07035298421020546 Shards:0}",
				"{Generations:3 Epoch:2 Tick:0s PerGeneration:[{N:-1 FillRatio:0.06986526854843626} {N:-1 FillRatio:0.07047491312564774} {N:-1 FillRatio:0.07071877095653234}]}",
				"N:-1",
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			for phase := 0; phase < 3; phase++ {
				if phase > 0 {
					if err := w.Rotate(); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.fill(w, phase); err != nil {
					t.Fatal(err)
				}
			}
			got := ringSurface(t, w)
			if got != c.want {
				t.Errorf("got\n%q\nwant\n%q", got, c.want)
			}
			blob, err := w.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back := c.empty
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if restored := ringSurface(t, back); restored != got {
				t.Errorf("restored ring reads\n%q\nwant\n%q", restored, got)
			}
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
			if err := back.Rotate(); err != nil {
				t.Fatal(err)
			}
			if a, b := ringSurface(t, w), ringSurface(t, back); a != b {
				t.Errorf("after one more rotation the restored ring reads\n%q\nthe original\n%q", b, a)
			}
		})
	}
}

// fillMembership writes phase p's keys into the head, by AddAll or, in
// phase 1, key by key.
func fillMembership(r goldenRing, phase int) error {
	w := r.(*Membership)
	keys := keysOf(fmt.Sprintf("m%d", phase), 300+100*phase)
	if phase == 1 {
		for _, k := range keys {
			w.Add(k)
		}
		return nil
	}
	return w.AddAll(keys)
}

// fillAssociation inserts phase p's keys into S1, S2 or both, then
// deletes some of them from one set.
func fillAssociation(r goldenRing, phase int) error {
	w := r.(*Association)
	keys := keysOf(fmt.Sprintf("a%d", phase), 400)
	for i, k := range keys {
		if i%3 != 2 {
			if err := w.InsertS1(k); err != nil {
				return err
			}
		}
		if i%3 != 0 {
			if err := w.InsertS2(k); err != nil {
				return err
			}
		}
	}
	for i, k := range keys[:100] {
		err := w.DeleteS1(k)
		if i%2 == 1 {
			err = w.DeleteS2(k)
		}
		if err != nil && !errors.Is(err, core.ErrNotStored) {
			return err
		}
	}
	return nil
}

// fillMultiplicity inserts phase p's keys with multiplicities 1–5 and,
// in phase 2, deletes one occurrence.
func fillMultiplicity(r goldenRing, phase int) error {
	w := r.(*Multiplicity)
	keys := keysOf(fmt.Sprintf("x%d", phase), 300)
	if err := w.AddAll(keys); err != nil {
		return err
	}
	for i, k := range keys[:150] {
		for n := i % 5; n > 0; n-- {
			if err := w.Insert(k); err != nil {
				return err
			}
		}
	}
	if phase == 2 {
		return w.Delete(keys[7])
	}
	return nil
}

// ringSurface renders a ring's snapshot sha256, Spec, Stats, Window
// and element counts (N, or N1 and N2 for association).
func ringSurface(t *testing.T, w goldenRing) [5]string {
	t.Helper()
	b, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	var counts string
	switch r := w.(type) {
	case *Association:
		counts = fmt.Sprintf("N1:%d N2:%d", r.N1(), r.N2())
	case interface{ N() int }:
		counts = fmt.Sprintf("N:%d", r.N())
	}
	return [5]string{hex.EncodeToString(sum[:]), fmt.Sprintf("%+v", w.Spec()),
		fmt.Sprintf("%+v", w.Stats()), fmt.Sprintf("%+v", w.Window()), counts}
}
