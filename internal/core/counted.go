package core

import (
	"shbf/internal/bitvec"
	"shbf/internal/counters"
	"shbf/internal/hashing"
)

// counted is the update side CShBF_A and CShBF_X share (paper
// Sections 4.3 and 5.3): the counter array C, as long as the query
// array B that their query side holds and kept in step with it, so
// that a bit is set exactly when its counter is nonzero. Every update
// moves one key's encoding, its k positions h_i(e) mod m shifted by
// the offset that encodes the key's region (CShBF_A) or multiplicity
// (CShBF_X), and the steps below are the only code that does:
// positions computes the k positions once, full checks the destination
// for headroom, and add and remove step the counters and bits and bill
// their accesses.
//
// Counters whose width divides 64 are stepped in place inside their
// word (counters.IncWord and DecWord, which inline); a width whose
// counters straddle words takes the general read-modify-write in the
// same loop. The accesses billed are those of the charged primitives
// (counters.Inc and Dec, bitvec.Set and Clear), so WithAccessCounter
// and SetUpdateCounter read the same totals whichever path stepped
// the counters: an increment costs C a read and a write and B a write;
// a decrement costs C a read, plus a write if the counter was nonzero,
// and B a write if it reached zero. The headroom check reads C
// uncharged.
type counted struct {
	counts *counters.Array
	pos    []int // scratch: the updating key's k unshifted positions
}

// positions computes the k positions h_i(e) mod m of the key digested
// as d once, into the filter's scratch.
func (c *counted) positions(fam *hashing.Family, d hashing.Digest, k, m int) []int {
	c.pos = fam.PositionsFromDigest(d, k, m, c.pos)
	return c.pos
}

// full reports whether a counter of the encoding at offset o is
// saturated. Updates check it before changing anything, so a refused
// update leaves the filter as it was.
func (c *counted) full(pos []int, o int) bool {
	counts := c.counts
	max := counts.Max()
	for _, p := range pos {
		if counts.GetUncounted(p+o) == max {
			return true
		}
	}
	return false
}

// add increments the k counters of the encoding at offset o and sets
// their bits in bits. A counter that two positions share and that
// reaches Max stays there and is tallied as an overflow, as
// counters.Inc does.
func (c *counted) add(bits *bitvec.Vector, pos []int, o int) {
	counts, inWord := c.counts, c.counts.InWord()
	for _, p := range pos {
		p += o
		if inWord {
			counts.IncWord(p)
		} else {
			counts.IncUncounted(p)
		}
		bits.SetUncounted(p)
	}
	counts.Charge(len(pos), len(pos))
	bits.Counter().AddWrites(len(pos))
}

// remove decrements the k counters of the encoding at offset o,
// clearing in bits the bits of those that reach zero (Figure 5, steps
// 2–3). A counter already at zero stays there, as counters.Dec leaves
// it.
func (c *counted) remove(bits *bitvec.Vector, pos []int, o int) {
	counts, inWord := c.counts, c.counts.InWord()
	decs, clears := 0, 0
	for _, p := range pos {
		p += o
		var v uint64
		var ok bool
		if inWord {
			v, ok = counts.DecWord(p)
		} else {
			v, ok = counts.DecUncounted(p)
		}
		if !ok {
			continue
		}
		decs++
		if v == 0 {
			bits.ClearUncounted(p)
			clears++
		}
	}
	counts.Charge(len(pos), decs)
	bits.Counter().AddWrites(clears)
}
