package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"shbf/internal/memmodel"
)

// TestCountingUpdateGolden pins what the CShBF_A, CShBF_X and CShBF_M
// update paths do to a filter, op by op, on filters small enough that
// positions collide within a key's encoding and counters saturate:
// the snapshot bytes (the counters' overflow tally included), each
// op's outcome and the set sizes after it, and the access totals the
// paper's update-cost accounting reads. Counter width 4 keeps every
// counter inside one word; width 5 makes some straddle two. Each
// width runs once plain and once with both access counters attached
// (WithAccessCounter on B, SetUpdateCounter on C and the table). A
// rewrite of the update paths must reproduce these values exactly;
// regenerate them only for a deliberate change of the snapshot format
// or of the paper's access accounting.
//
// CShBF_M's rollback counts as refused an insert whose positions
// include one counter twice at one below its maximum: the first
// increment saturates it and the second finds it full. A check of
// every counter before any increment (counted.full) would accept that
// insert and tally an overflow instead. rollbackOnly pins how many of
// the member runs' refusals are of that kind.
func TestCountingUpdateGolden(t *testing.T) {
	want := map[string]updateGolden{
		"assoc/w4/plain": {
			snapshot: "fcee01ab21e78c9edd6d46897601ba7382e9b67a44c1218a127a31f2c3bed836",
			trace:    "919149ab08383cde07a4afbcbbec5ca41db378490155cf9ea5dc055baf3dca07",
			outcomes: "ok=2822 sat=1201 over=0 absent=1977",

			n1: 56, n2: 56, overflows: 32,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
		},
		"assoc/w4/counted": {
			snapshot: "fcee01ab21e78c9edd6d46897601ba7382e9b67a44c1218a127a31f2c3bed836",
			trace:    "919149ab08383cde07a4afbcbbec5ca41db378490155cf9ea5dc055baf3dca07",
			outcomes: "ok=2822 sat=1201 over=0 absent=1977",

			n1: 56, n2: 56, overflows: 32,
			bReads: 0, bWrites: 9353, updReads: 17984, updWrites: 17984,
		},
		"assoc/w5/plain": {
			snapshot: "2c525dd577c1aa0db7e35c05c8a77e3f0a64002e0794fd04920e85c582a54c03",
			trace:    "70d55bd6395fc8d84994d4de2fdd445e86f43da0f7192d991927c4758131db87",
			outcomes: "ok=3587 sat=684 over=0 absent=1729",

			n1: 62, n2: 64, overflows: 64,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
		},
		"assoc/w5/counted": {
			snapshot: "2c525dd577c1aa0db7e35c05c8a77e3f0a64002e0794fd04920e85c582a54c03",
			trace:    "70d55bd6395fc8d84994d4de2fdd445e86f43da0f7192d991927c4758131db87",
			outcomes: "ok=3587 sat=684 over=0 absent=1729",

			n1: 62, n2: 64, overflows: 64,
			bReads: 0, bWrites: 12930, updReads: 25008, updWrites: 25008,
		},
		"mult/w4/plain": {
			snapshot: "0b3e17e505b625f915dba48ad740591bd61297b3db27775d31ec4b0feb198f5a",
			trace:    "12ffe3bf91a84b28fb7a72fc9c840cac3302b8272686b50f9ed86e8b25f5b2b2",
			outcomes: "ok=3011 sat=2198 over=278 absent=513",

			n1: 147, n2: 0, overflows: 74,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
		},
		"mult/w4/counted": {
			snapshot: "0b3e17e505b625f915dba48ad740591bd61297b3db27775d31ec4b0feb198f5a",
			trace:    "12ffe3bf91a84b28fb7a72fc9c840cac3302b8272686b50f9ed86e8b25f5b2b2",
			outcomes: "ok=3011 sat=2198 over=278 absent=513",

			n1: 147, n2: 0, overflows: 74,
			bReads: 0, bWrites: 16114, updReads: 38259, updWrites: 34277,
		},
		"mult/w5/plain": {
			snapshot: "0ee3235933d7cc431d74eeefc7a570b726cb5a1945abbd838615668dd058e7a4",
			trace:    "01f226a77d32bd72a0cfe8f61ea73ca01333104a009f3d921798feaca32f79cc",
			outcomes: "ok=4051 sat=1149 over=422 absent=378",

			n1: 148, n2: 0, overflows: 66,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
		},
		"mult/w5/counted": {
			snapshot: "0ee3235933d7cc431d74eeefc7a570b726cb5a1945abbd838615668dd058e7a4",
			trace:    "01f226a77d32bd72a0cfe8f61ea73ca01333104a009f3d921798feaca32f79cc",
			outcomes: "ok=4051 sat=1149 over=422 absent=378",

			n1: 148, n2: 0, overflows: 66,
			bReads: 0, bWrites: 22562, updReads: 51509, updWrites: 48235,
		},
		"mult-unsafe/w4/plain": {
			snapshot: "ee94c3caa249e50558ee3da8368ad96a68f511a04d4ba37effda8c633dff29a4",
			trace:    "43c6595fc176d1e6265bcc4199ca5d8a5decfcf6cd52c36e411f6a00e092bc32",
			outcomes: "ok=4166 sat=304 over=1487 absent=43",

			n1: -1, n2: 0, overflows: 18,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
		},
		"mult-unsafe/w4/counted": {
			snapshot: "ee94c3caa249e50558ee3da8368ad96a68f511a04d4ba37effda8c633dff29a4",
			trace:    "43c6595fc176d1e6265bcc4199ca5d8a5decfcf6cd52c36e411f6a00e092bc32",
			outcomes: "ok=4166 sat=304 over=1487 absent=43",

			n1: -1, n2: 0, overflows: 18,
			bReads: 35884, bWrites: 29198, updReads: 49470, updWrites: 49321,
		},
		"mult-unsafe/w5/plain": {
			snapshot: "54246d5f79203000007c7cd71c7ebe3f3648b88a8b9d5bef33256e4394b5ce4d",
			trace:    "9f5b065a34a229e23e3169a60dc6ff722e2c5e1fc84c2c33fc9f25f6676dd533",
			outcomes: "ok=4036 sat=184 over=1746 absent=34",

			n1: -1, n2: 0, overflows: 17,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
		},
		"mult-unsafe/w5/counted": {
			snapshot: "54246d5f79203000007c7cd71c7ebe3f3648b88a8b9d5bef33256e4394b5ce4d",
			trace:    "9f5b065a34a229e23e3169a60dc6ff722e2c5e1fc84c2c33fc9f25f6676dd533",
			outcomes: "ok=4036 sat=184 over=1746 absent=34",

			n1: -1, n2: 0, overflows: 17,
			bReads: 35917, bWrites: 27995, updReads: 47964, updWrites: 47724,
		},
		"member/w4/plain": {
			snapshot: "b7622d5b72bca0b997db4a7c51ba9deaef224ad33b479c55e1cd971cd9827be0",
			trace:    "4dca2c5323c8e03aa4fdd4cf2a1cc5cb311816c63eeba002978b0353d4842692",
			outcomes: "ok=3410 sat=1240 over=0 absent=1350",

			n1: 46, n2: 0, overflows: 0,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
			rollbackOnly: 58,
		},
		"member/w4/counted": {
			snapshot: "b7622d5b72bca0b997db4a7c51ba9deaef224ad33b479c55e1cd971cd9827be0",
			trace:    "4dca2c5323c8e03aa4fdd4cf2a1cc5cb311816c63eeba002978b0353d4842692",
			outcomes: "ok=3410 sat=1240 over=0 absent=1350",

			n1: 46, n2: 0, overflows: 0,
			bReads: 0, bWrites: 19045, updReads: 35170, updWrites: 35125,
			rollbackOnly: 58,
		},
		"member/w5/plain": {
			snapshot: "eaa22d5d83f89d10717096c75c6ab9ed70da03624042da49aea233c9e3636313",
			trace:    "58d5c4c41c3948b2a08443f571efd0f047f9b2d62cfe8b33a90d090632036b68",
			outcomes: "ok=4472 sat=718 over=0 absent=810",

			n1: 42, n2: 0, overflows: 0,
			bReads: 0, bWrites: 0, updReads: 0, updWrites: 0,
			rollbackOnly: 54,
		},
		"member/w5/counted": {
			snapshot: "eaa22d5d83f89d10717096c75c6ab9ed70da03624042da49aea233c9e3636313",
			trace:    "58d5c4c41c3948b2a08443f571efd0f047f9b2d62cfe8b33a90d090632036b68",
			outcomes: "ok=4472 sat=718 over=0 absent=810",

			n1: 42, n2: 0, overflows: 0,
			bReads: 0, bWrites: 21170, updReads: 40474, updWrites: 40418,
			rollbackOnly: 54,
		},
	}
	for _, kind := range []string{"assoc", "mult", "mult-unsafe", "member"} {
		for _, width := range []uint{4, 5} {
			for _, counted := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/%s", kind, width, map[bool]string{false: "plain", true: "counted"}[counted])
				t.Run(name, func(t *testing.T) {
					got := runUpdateGolden(t, kind, width, counted)
					if got != want[name] {
						t.Errorf("got  %#v\nwant %#v", got, want[name])
					}
				})
			}
		}
	}
}

// updateGolden is one pinned churn run: the sha256 of the final
// MarshalBinary, the sha256 of the per-op trace (outcome code and set
// sizes after each op), the outcome tallies, the final set sizes, the
// counter array's overflow tally, the reads and writes charged to B's
// counter and to the update counter, and (CShBF_M only) the refused
// inserts none of whose counters was full before the insert.
type updateGolden struct {
	snapshot, trace     string
	outcomes            string
	n1, n2              int
	overflows           uint64
	bReads, bWrites     uint64
	updReads, updWrites uint64
	rollbackOnly        int
}

// outcomeCode maps an update's error to one trace byte.
func outcomeCode(t *testing.T, err error) byte {
	switch {
	case err == nil:
		return '.'
	case errors.Is(err, ErrCounterSaturated):
		return 'S'
	case errors.Is(err, ErrCountOverflow):
		return 'O'
	case errors.Is(err, ErrNotStored):
		return 'N'
	}
	t.Fatalf("unexpected update error %v", err)
	return 0
}

func runUpdateGolden(t *testing.T, kind string, width uint, counted bool) updateGolden {
	t.Helper()
	var bAcc, updAcc memmodel.Counter
	opts := []Option{WithCounterWidth(width), WithSeed(0x60_1de)}
	if counted {
		opts = append(opts, WithAccessCounter(&bAcc))
	}
	// Width 5 gets half the array, so its wider counters still
	// saturate and its encodings still collide.
	m := 64 >> (width - 4)
	keys := make([][]byte, 160)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("golden-%03d", i))
	}
	rng := rand.New(rand.NewSource(int64(width)*1000 + int64(len(kind))))
	var (
		trace     []byte
		tally     = map[byte]int{}
		snapshot  func() ([]byte, error)
		sizes     func() (int, int)
		overflows func() uint64
		step      func(op int, e []byte) error
		// rollbackOnly counts CShBF_M's refused inserts that found no
		// counter full before they started.
		rollbackOnly int
	)
	const ops = 6000
	switch kind {
	case "assoc":
		// w̄ = 8 packs every encoding into m+7 counters, so they
		// saturate; the first half of the run leans to inserts.
		a, err := NewCountingAssociation(m, 8, append(opts, WithMaxOffset(8))...)
		if err != nil {
			t.Fatal(err)
		}
		if counted {
			a.SetUpdateCounter(&updAcc)
		}
		snapshot, overflows = a.MarshalBinary, a.counts.Overflows
		sizes = func() (int, int) { return a.N1(), a.N2() }
		step = func(op int, e []byte) error {
			ins := rng.Intn(10) < 6
			if op > ops/2 {
				ins = rng.Intn(10) < 4
			}
			switch s1 := rng.Intn(2) == 0; {
			case ins && s1:
				return a.InsertS1(e)
			case ins:
				return a.InsertS2(e)
			case s1:
				return a.DeleteS1(e)
			default:
				return a.DeleteS2(e)
			}
		}
	case "member":
		// k = 8 puts four pairs into m+7 counters, so a key's positions
		// often share a counter; the first half of the run leans to
		// inserts, which saturates counters.
		c, err := NewCountingMembership(m, 8, append(opts, WithMaxOffset(8))...)
		if err != nil {
			t.Fatal(err)
		}
		if counted {
			c.SetUpdateCounter(&updAcc)
		}
		snapshot, overflows = c.MarshalBinary, c.counts.Overflows
		sizes = func() (int, int) { return c.N(), 0 }
		step = func(op int, e []byte) error {
			ins := rng.Intn(10) < 6
			if op > ops/2 {
				ins = rng.Intn(10) < 4
			}
			if !ins {
				return c.Delete(e)
			}
			full := false
			for _, p := range c.filter.positions(e, nil) {
				full = full || c.counts.GetUncounted(p) == c.counts.Max()
			}
			err := c.Insert(e)
			if errors.Is(err, ErrCounterSaturated) && !full {
				rollbackOnly++
			}
			return err
		}
	default:
		if kind == "mult-unsafe" {
			opts = append(opts, WithUnsafeUpdates())
		}
		f, err := NewCountingMultiplicity(m, 6, 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if counted {
			f.SetUpdateCounter(&updAcc)
		}
		snapshot, overflows = f.MarshalBinary, f.counts.Overflows
		sizes = func() (int, int) { return f.N(), 0 }
		step = func(op int, e []byte) error {
			if rng.Intn(10) < 6 {
				return f.Insert(e)
			}
			return f.Delete(e)
		}
	}
	for op := range ops {
		code := outcomeCode(t, step(op, keys[rng.Intn(len(keys))]))
		tally[code]++
		n1, n2 := sizes()
		trace = append(trace, code)
		trace = binary.AppendVarint(trace, int64(n1))
		trace = binary.AppendVarint(trace, int64(n2))
	}
	blob, err := snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := sizes()
	return updateGolden{
		snapshot:  sha256Hex(blob),
		trace:     sha256Hex(trace),
		outcomes:  fmt.Sprintf("ok=%d sat=%d over=%d absent=%d", tally['.'], tally['S'], tally['O'], tally['N']),
		n1:        n1,
		n2:        n2,
		overflows: overflows(),
		bReads:    bAcc.Reads(),
		bWrites:   bAcc.Writes(),
		updReads:  updAcc.Reads(),
		updWrites: updAcc.Writes(),

		rollbackOnly: rollbackOnly,
	}
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
