package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"shbf/internal/hashing"
	"shbf/internal/memmodel"
)

// TestQueryChargeGolden pins the reads every probe kind bills to B's
// access counter (WithAccessCounter) for a seeded set of queries, and
// the answers those queries return. The filters are about half full,
// so queries stop at every window. Each kind runs at the paper's width
// w̄ = c = 57, where every window costs one access, and at
// w̄ = c = 64, where a window costs one access if it starts on a byte
// boundary and two otherwise (memmodel.AccessCount). The kinds with a
// round kernel (ContainsGroup, QueryGroup, CountGroup) also answer
// every query in one group, which must bill the same reads and return
// the same answers as the per-key probe. A rewrite of the probes must
// reproduce these values exactly; regenerate them only for a
// deliberate change of the paper's access accounting.
func TestQueryChargeGolden(t *testing.T) {
	want := map[string]queryGolden{
		"ShBF_M/w57":      {2251, "044911646d7550b6db6adfdc0e2ee079436228ab32c7b1827677109dc169e8ab"},
		"ShBF_M/w64":      {4147, "b646062d846ae7b8e7554b199b24d0fa4590516616e356789d292fbe0200439f"},
		"T-shift/w57":     {1493, "6bef4ff9f71bca807678c46f77f3e3dc32a71b794757d777ec091802d1b95817"},
		"T-shift/w64":     {2815, "34612f130dd4538380ff6c383e961b936e8d821653a7be5f2a2451340875d12c"},
		"ShBF_A/w57":      {3918, "47cc95e594f0c80874087a642c4c68f64d22786e1900214c01969d5f37f6ecad"},
		"ShBF_A/w64":      {7399, "e67c8a3e204aca76652249d5c4337347616f67098bf0dcfb2e3f2c97d8a8178c"},
		"CShBF_A/w57":     {3918, "47cc95e594f0c80874087a642c4c68f64d22786e1900214c01969d5f37f6ecad"},
		"CShBF_A/w64":     {7399, "e67c8a3e204aca76652249d5c4337347616f67098bf0dcfb2e3f2c97d8a8178c"},
		"ShBF_X/w57":      {6765, "4768a8bdb8758f0e7977f65a50a8b970b926c9fe01467c1ce00e41d84f0b099f"},
		"ShBF_X/w64":      {12709, "b41ee04ae0955340f1e1c77390d4777eab2c1c386029f321e77c44c8bc2cbaf3"},
		"CShBF_X/w57":     {6734, "b0c828218f1599a746f6d8d6e811a1100d90365ebf5e91769a6b3f469a1227ff"},
		"CShBF_X/w64":     {12764, "c7ea80def136b25b745e37920c5b109525b53d02cb27637ee1c23c2a38e719d8"},
		"multi-assoc/w57": {4821, "6ef0f0a619ca0f770b1a455dfcd9bff5b7da907c4dfe2842c1a6ca6666eba38c"},
		"multi-assoc/w64": {8921, "f466346eadddca67c2b6f909cdb7f9261712f5117d7c84968b8085921c1d299b"},
	}
	for _, kind := range []string{"ShBF_M", "T-shift", "ShBF_A", "CShBF_A", "ShBF_X", "CShBF_X", "multi-assoc"} {
		for _, width := range []int{DefaultMaxOffset, 64} {
			name := fmt.Sprintf("%s/w%d", kind, width)
			t.Run(name, func(t *testing.T) {
				if got := runQueryGolden(t, kind, width); got != want[name] {
					t.Errorf("got  %+v\nwant %+v", got, want[name])
				}
			})
		}
	}
}

// queryGolden is one pinned query run: the reads billed to B's counter
// and the sha256 of the answers, one per query in order.
type queryGolden struct {
	reads   uint64
	answers string
}

func runQueryGolden(t *testing.T, kind string, width int) queryGolden {
	t.Helper()
	var acc memmodel.Counter
	opts := []Option{WithAccessCounter(&acc), WithSeed(0x5eed_c0de)}
	const m, k = 4096, 6
	stored := genElements(400, 21)
	queries := append(append([][]byte(nil), stored[:200]...), genElements(1000, 22)...)
	ds := make([]hashing.Digest, len(queries))
	idxs := make([]int32, len(queries))
	for i, e := range queries {
		ds[i], idxs[i] = hashing.KeyDigest(e), int32(i)
	}
	s1, s2 := stored[:250], stored[150:]
	var sc ProbeScratch
	var answer func(e []byte) uint64
	// group answers every query through the kind's round kernel; nil
	// for the kinds without one.
	var group func() []uint64
	switch kind {
	case "ShBF_M":
		f := mustMembership(t, m, 8, append(opts, WithMaxOffset(width))...)
		for _, e := range stored {
			f.Add(e)
		}
		answer = func(e []byte) uint64 { return uint64(b2i(f.Contains(e))) }
		group = func() []uint64 {
			dst := make([]bool, len(queries))
			f.ContainsGroup(dst, idxs, ds, &sc)
			return widen(dst, func(v bool) uint64 { return uint64(b2i(v)) })
		}
	case "T-shift":
		f := mustTShift(t, m, k, 2, append(opts, WithMaxOffset(width))...)
		for _, e := range stored {
			f.Add(e)
		}
		answer = func(e []byte) uint64 { return uint64(b2i(f.Contains(e))) }
	case "ShBF_A":
		a, err := BuildAssociation(s1, s2, m, k, append(opts, WithMaxOffset(width))...)
		if err != nil {
			t.Fatal(err)
		}
		answer = func(e []byte) uint64 { return uint64(a.Query(e)) }
	case "CShBF_A":
		a := mustCountingAssoc(t, m, k, append(opts, WithMaxOffset(width))...)
		for _, e := range s1 {
			if err := a.InsertS1(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range s2 {
			if err := a.InsertS2(e); err != nil {
				t.Fatal(err)
			}
		}
		answer = func(e []byte) uint64 { return uint64(a.Query(e)) }
		group = func() []uint64 {
			dst := make([]Region, len(queries))
			a.QueryGroup(dst, idxs, ds, &sc)
			return widen(dst, func(v Region) uint64 { return uint64(v) })
		}
	case "ShBF_X":
		f := mustMultiplicity(t, m, k, width, opts...)
		for i, e := range stored {
			if err := f.AddWithCount(e, 1+i%width); err != nil {
				t.Fatal(err)
			}
		}
		answer = func(e []byte) uint64 { return uint64(f.Count(e)) }
	case "CShBF_X":
		f := mustCountingMult(t, m, k, width, opts...)
		for i, e := range stored {
			for range 1 + i%5 {
				if err := f.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		answer = func(e []byte) uint64 { return uint64(f.Count(e)) }
		group = func() []uint64 {
			dst := make([]int, len(queries))
			f.CountGroup(dst, idxs, ds, &sc)
			return widen(dst, func(v int) uint64 { return uint64(v) })
		}
	case "multi-assoc":
		a, err := BuildMultiAssociation([][][]byte{stored[:200], stored[100:300], stored[250:]}, m, k,
			append(opts, WithMaxOffset(width))...)
		if err != nil {
			t.Fatal(err)
		}
		answer = func(e []byte) uint64 { return uint64(a.Query(e).candidates) }
	}

	acc.Reset()
	answers := make([]uint64, len(queries))
	for i, e := range queries {
		answers[i] = answer(e)
	}
	got := queryGolden{reads: acc.Reads(), answers: sha256Hex(appendAnswers(nil, answers))}
	if acc.Writes() != 0 {
		t.Fatalf("queries billed %d writes", acc.Writes())
	}
	if group != nil {
		acc.Reset()
		grouped := group()
		if acc.Reads() != got.reads {
			t.Errorf("round kernel billed %d reads, per-key probes %d", acc.Reads(), got.reads)
		}
		for i := range grouped {
			if grouped[i] != answers[i] {
				t.Fatalf("query %d: round kernel answered %d, per-key probe %d", i, grouped[i], answers[i])
			}
		}
	}
	return got
}

// widen converts a round kernel's answers to the golden's form.
func widen[T any](answers []T, conv func(T) uint64) []uint64 {
	out := make([]uint64, len(answers))
	for i, v := range answers {
		out[i] = conv(v)
	}
	return out
}

func appendAnswers(dst []byte, answers []uint64) []byte {
	for _, v := range answers {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}
