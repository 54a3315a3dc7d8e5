package core

import (
	"bytes"
	"fmt"
	"testing"

	"shbf/internal/bitvec"
)

// FuzzCountingUpdates drives CShBF_A and CShBF_X through fuzzed
// insert/delete sequences on filters small enough that encodings
// collide and counters saturate, at every counter width from 1 to 8
// (in-word and straddling), and checks after every op that:
//   - a bit of B is set exactly when its counter in C is nonzero;
//   - the exact side tables agree with a model: CShBF_A's S1/S2
//     membership and set sizes, and in safe mode CShBF_X's counts;
//   - a refused update leaves the filter's snapshot bytes unchanged;
//   - while no counter has saturated, queries never miss: CShBF_A's
//     candidates contain the key's region and safe-mode CShBF_X never
//     reports less than the exact count.
//
// Each op byte picks a key from a pool of 16 (low nibble) and an op
// (high nibble): the four association updates, then multiplicity
// inserts and deletes.
func FuzzCountingUpdates(f *testing.F) {
	f.Add(uint8(3), false, []byte{0x00, 0x11, 0x20, 0x31, 0x40, 0x40, 0x41, 0x60, 0x70})
	f.Add(uint8(4), true, bytes.Repeat([]byte{0x45, 0x46, 0x47, 0x15, 0x05, 0x65}, 12))
	f.Add(uint8(0), false, bytes.Repeat([]byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67}, 20))
	f.Fuzz(func(t *testing.T, width uint8, unsafe bool, ops []byte) {
		w := uint(width%8) + 1
		a, err := NewCountingAssociation(48, 6, WithMaxOffset(8), WithCounterWidth(w))
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithCounterWidth(w)}
		if unsafe {
			opts = append(opts, WithUnsafeUpdates())
		}
		x, err := NewCountingMultiplicity(48, 5, 6, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var keys [16][]byte
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("fuzz-key-%02d", i))
		}
		var sets [16]uint64 // CShBF_A's model: inS1|inS2 per key
		var counts [16]int  // CShBF_X's model (safe mode)

		for n, op := range ops {
			ki, e := op&15, keys[op&15]
			var before []byte
			var err error
			if op>>4 < 4 {
				before, _ = a.MarshalBinary()
				bit := uint64(inS1) << (op >> 4 & 1)
				switch op >> 4 {
				case 0:
					err = a.InsertS1(e)
				case 1:
					err = a.InsertS2(e)
				case 2:
					err = a.DeleteS1(e)
				case 3:
					err = a.DeleteS2(e)
				}
				if err == nil {
					if op>>4 < 2 {
						sets[ki] |= bit
					} else {
						sets[ki] &^= bit
					}
				} else if after, _ := a.MarshalBinary(); !bytes.Equal(before, after) {
					t.Fatalf("op %d: refused association update (%v) changed the filter", n, err)
				}
			} else {
				before, _ = x.MarshalBinary()
				insert := op>>4 < 10
				if insert {
					err = x.Insert(e)
				} else {
					err = x.Delete(e)
				}
				switch {
				case err == nil && insert:
					counts[ki]++
				case err == nil:
					counts[ki]--
				default:
					if after, _ := x.MarshalBinary(); !bytes.Equal(before, after) {
						t.Fatalf("op %d: refused multiplicity update (%v) changed the filter", n, err)
					}
				}
			}
			checkCounted(t, n, a.bits, &a.counted)
			checkCounted(t, n, x.bits, &x.counted)

			n1, n2 := 0, 0
			for i, v := range sets {
				if got, _ := a.sets.Get(keys[i]); got != v {
					t.Fatalf("op %d: key %d stored as %b, want %b", n, i, got, v)
				}
				n1 += int(v & inS1)
				n2 += int(v >> 1)
				if v != 0 && a.counts.Overflows() == 0 && !a.Query(keys[i]).Contains(regionOf(v)) {
					t.Fatalf("op %d: key %d's region %v missing from %v", n, i, regionOf(v), a.Query(keys[i]))
				}
			}
			if a.N1() != n1 || a.N2() != n2 {
				t.Fatalf("op %d: N1/N2 = %d/%d, want %d/%d", n, a.N1(), a.N2(), n1, n2)
			}
			if unsafe {
				continue
			}
			distinct := 0
			for i, c := range counts {
				if got := x.ExactCount(keys[i]); got != c {
					t.Fatalf("op %d: key %d exact count %d, want %d", n, i, got, c)
				}
				if c > 0 {
					distinct++
				}
				if x.counts.Overflows() == 0 && x.Count(keys[i]) < c {
					t.Fatalf("op %d: key %d counted %d, below its %d", n, i, x.Count(keys[i]), c)
				}
			}
			if x.N() != distinct {
				t.Fatalf("op %d: N = %d, want %d", n, x.N(), distinct)
			}
		}
	})
}

// checkCounted fails unless every bit of B is set exactly when its
// counter in C is nonzero.
func checkCounted(t *testing.T, op int, b *bitvec.Vector, c *counted) {
	t.Helper()
	for i := 0; i < b.Len(); i++ {
		if b.Peek(i) != (c.counts.Peek(i) != 0) {
			t.Fatalf("op %d: bit %d is %v but its counter is %d", op, i, b.Peek(i), c.counts.Peek(i))
		}
	}
}
