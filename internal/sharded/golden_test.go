package sharded

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"time"

	"shbf/internal/core"
)

// The counting kinds serialize their exact side tables (CShBF_A's S1
// and S2 lists, CShBF_X's per-key counts) into every snapshot. These
// hashes pin the snapshot bytes of seeded, churned filters so that a
// change to the in-memory table layout cannot change the format:
// restored snapshots, ShBE envelopes and replica merges all depend on
// it. Regenerate only for a deliberate, versioned format change.
const (
	goldenCountingAssociation  = "c0e5267a0824f038bd1c4a370afe6546370dc14e460ccd0e9c01f177b83775db"
	goldenCountingMultiplicity = "7bab7e9069672d1ac341743ab243e0628ed0fb14c7599379710b24aa68547680"
	goldenShardedAssociation   = "be5072ee30d756a4715314680b1b55d1d9b21f4c649fadb22434d0a7395446a7"
	goldenShardedMultiplicity  = "b179c0e2366c8dbfe663c06691eae59765b81c629400f0fa1274a98a9427357f"
)

// goldenKeys returns n distinct keys of 0–40 bytes with embedded zero
// bytes, so both short (inline) and long keys are covered.
func goldenKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(20161017))
	seen := make(map[string]bool, n)
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		k := make([]byte, rng.Intn(41))
		rng.Read(k)
		if len(k) > 3 {
			k[rng.Intn(len(k))] = 0
		}
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	return keys
}

type countingAssoc interface {
	InsertS1([]byte) error
	InsertS2([]byte) error
	DeleteS1([]byte) error
	DeleteS2([]byte) error
	MarshalBinary() ([]byte, error)
}

type countingMult interface {
	Insert([]byte) error
	Delete([]byte) error
	MarshalBinary() ([]byte, error)
}

// churnAssociation drives a seeded mix of inserts into S1 and S2
// (overlapping, so all three regions occur), region moves and deletes.
func churnAssociation(t *testing.T, a countingAssoc) {
	t.Helper()
	keys := goldenKeys(3000)
	rng := rand.New(rand.NewSource(7))
	for i, k := range keys {
		if i%3 != 2 {
			must(t, a.InsertS1(k))
		}
		if i%3 != 0 {
			must(t, a.InsertS2(k))
		}
	}
	for i := 0; i < 1500; i++ {
		k := keys[rng.Intn(len(keys))]
		var err error
		switch rng.Intn(4) {
		case 0:
			err = a.InsertS1(k)
		case 1:
			err = a.InsertS2(k)
		case 2:
			err = a.DeleteS1(k)
		default:
			err = a.DeleteS2(k)
		}
		if err != nil && !errors.Is(err, core.ErrNotStored) {
			t.Fatal(err)
		}
	}
}

// churnMultiplicity inserts seeded multiplicities in [1, 12] and then
// deletes some occurrences, removing some keys entirely.
func churnMultiplicity(t *testing.T, f countingMult) {
	t.Helper()
	keys := goldenKeys(2500)
	rng := rand.New(rand.NewSource(11))
	for _, k := range keys {
		for n := 1 + rng.Intn(12); n > 0; n-- {
			must(t, f.Insert(k))
		}
	}
	for i, k := range keys {
		if i%4 == 0 {
			for n := 1 + rng.Intn(12); n > 0; n-- {
				if err := f.Delete(k); errors.Is(err, core.ErrNotStored) {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func snapshotHash(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) string {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestCountingSnapshotGolden(t *testing.T) {
	ca, err := core.NewCountingAssociation(1<<15, 6, core.WithSeed(42))
	must(t, err)
	churnAssociation(t, ca)

	cm, err := core.NewCountingMultiplicity(1<<16, 5, 16, core.WithSeed(43))
	must(t, err)
	churnMultiplicity(t, cm)

	sa, err := NewAssociation(1<<16, 6, 4, core.WithSeed(44))
	must(t, err)
	churnAssociation(t, sa)

	sm, err := NewMultiplicity(1<<17, 5, 16, 4, core.WithSeed(45))
	must(t, err)
	churnMultiplicity(t, sm)

	for _, c := range []struct {
		name string
		f    interface{ MarshalBinary() ([]byte, error) }
		want string
	}{
		{"core.CountingAssociation", ca, goldenCountingAssociation},
		{"core.CountingMultiplicity", cm, goldenCountingMultiplicity},
		{"sharded.Association", sa, goldenShardedAssociation},
		{"sharded.Multiplicity", sm, goldenShardedMultiplicity},
	} {
		if got := snapshotHash(t, c.f); got != c.want {
			t.Errorf("%s snapshot sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// The other four sharded kinds: membership, and the three windowed
// compositions, whose snapshots nest ShBW ring blobs in the shard-set
// container. These hashes pin that how the compositions are assembled
// cannot change the bytes. The windows rotate at least once, so head
// positions, epochs and a non-zero Tick are all in the pinned image.
const (
	goldenShardedMembership         = "77c27f14734d91cdefcbd369698eb05b56b9d2b4a0e763e925d06c7182263845"
	goldenShardedWindowMembership   = "45285042057f8a5e116ccce17ba4e299271d1f488737c59c11ab19643733d05d"
	goldenShardedWindowAssociation  = "32c51074b57b6f2d1eb2539fb8b7a49c3cf2e51289905fcca549e840912aea70"
	goldenShardedWindowMultiplicity = "abbae25c6b81e421ed522388975b3e7be89b9c9fa56586332e8cb3862f9d3b83"
)

func TestShardedSnapshotGolden(t *testing.T) {
	keys := goldenKeys(3000)

	f, err := New(1<<16, 8, 4, core.WithSeed(46))
	must(t, err)
	must(t, f.AddAll(keys[:2000]))
	for _, k := range keys[2000:] {
		f.Add(k)
	}

	w, err := NewWindow(core.Spec{Kind: core.KindWindowShardedMembership, M: 1 << 16, K: 8,
		Shards: 4, Generations: 3, Tick: 30 * time.Second, Seed: 47})
	must(t, err)
	for _, k := range keys[:1000] {
		w.Add(k)
	}
	must(t, w.Rotate())
	must(t, w.AddAll(keys[1000:2000]))
	must(t, w.Rotate())
	must(t, w.AddAll(keys[2000:2500]))

	wa, err := NewWindowAssociation(core.Spec{Kind: core.KindWindowShardedAssociation, M: 1 << 16, K: 6,
		Shards: 4, Generations: 3, Tick: time.Minute, Seed: 48})
	must(t, err)
	churnAssociation(t, wa)
	must(t, wa.Rotate())
	churnAssociation(t, wa)

	wm, err := NewWindowMultiplicity(core.Spec{Kind: core.KindWindowShardedMultiplicity, M: 1 << 17, K: 5,
		C: 16, Shards: 4, Generations: 2, Tick: time.Minute, Seed: 49})
	must(t, err)
	churnMultiplicity(t, wm)
	must(t, wm.Rotate())
	must(t, wm.AddAll(keys[:1000]))

	for _, c := range []struct {
		name string
		f    interface{ MarshalBinary() ([]byte, error) }
		want string
	}{
		{"sharded.Filter", f, goldenShardedMembership},
		{"sharded.Window", w, goldenShardedWindowMembership},
		{"sharded.WindowAssociation", wa, goldenShardedWindowAssociation},
		{"sharded.WindowMultiplicity", wm, goldenShardedWindowMultiplicity},
	} {
		if got := snapshotHash(t, c.f); got != c.want {
			t.Errorf("%s snapshot sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
