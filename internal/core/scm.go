package core

import (
	"fmt"

	"shbf/internal/counters"
	"shbf/internal/hashing"
	"shbf/internal/memmodel"
)

// SCMSketch is the Shifting Count-Min sketch of paper Section 5.5: the
// shifting framework applied to the count-min sketch [9]. Where a CM
// sketch with d rows computes d hash functions and touches d counters
// per operation, the SCM sketch keeps d/2 rows and, per row, updates the
// two counters v_i[h_i(e)] and v_i[h_i(e)+o(e)] — halving hash
// computations and memory accesses, since both counters of a row fit in
// one access window when o(e) ≤ (w−7)/z for z-bit counters.
//
// Rows are allocated with r base slots plus maxOffset slack so shifted
// indices never wrap (the paper draws each row with 2r counters for the
// same reason).
type SCMSketch struct {
	rows      []*counters.Array
	d         int             // logical depth (must be even); d/2 physical rows
	r         int             // base slots per row
	maxOffset int             // offset range bound (w−7)/z
	fam       *hashing.Family // d/2 row hashers + 1 offset hasher
	seed      uint64
}

// scmMaxOffset is the offset bound for counters of width bits,
// max(2, (w−7)/width), so that a row's counter pair is one memory
// access (Section 5.5).
func scmMaxOffset(width uint) int { return max(2, (WordBits-7)/int(width)) }

// NewSCMSketch returns an SCM sketch with logical depth d (an even
// number, matching a CM sketch with d rows) and r base counters per
// row. Counter width defaults to 32 bits (override with
// WithCounterWidth); the offset bound is derived as max(2, (w−7)/width)
// so a row's counter pair is one memory access, per Section 5.5.
func NewSCMSketch(d, r int, opts ...Option) (*SCMSketch, error) {
	cfg, err := buildConfig(KindSCMSketch, opts)
	if err != nil {
		return nil, err
	}
	if d < 2 || d%2 != 0 {
		return nil, fmt.Errorf("core: depth d = %d must be even and ≥ 2", d)
	}
	if r < 1 {
		return nil, fmt.Errorf("core: row size r = %d must be ≥ 1", r)
	}
	maxOffset := scmMaxOffset(cfg.counterWidth)
	s := &SCMSketch{
		rows:      make([]*counters.Array, d/2),
		d:         d,
		r:         r,
		maxOffset: maxOffset,
		fam:       hashing.NewFamily(d/2+1, cfg.seed),
		seed:      cfg.seed,
	}
	for i := range s.rows {
		s.rows[i] = counters.New(r+maxOffset, cfg.counterWidth)
		s.rows[i].SetCounter(cfg.counter)
	}
	return s, nil
}

// D returns the logical depth (the number of counters examined per
// query, matching a CM sketch's d).
func (s *SCMSketch) D() int { return s.d }

// R returns the base row width.
func (s *SCMSketch) R() int { return s.r }

// MaxOffset returns the derived offset bound.
func (s *SCMSketch) MaxOffset() int { return s.maxOffset }

// HashOpsPerOp returns d/2 + 1, versus the CM sketch's d.
func (s *SCMSketch) HashOpsPerOp() int { return s.d/2 + 1 }

// SetUpdateCounter attaches a single access counter to all rows.
func (s *SCMSketch) SetUpdateCounter(mc *memmodel.Counter) {
	for _, row := range s.rows {
		row.SetCounter(mc)
	}
}

// offset computes o(e) = h_{d/2+1}(e) % (maxOffset−1) + 1 from e's
// digest.
func (s *SCMSketch) offset(d hashing.Digest) int {
	return hashing.Reduce(s.fam.FromDigest(s.d/2, d), s.maxOffset-1) + 1
}

// Insert increments e's d counters (two per physical row): one digest
// pass, d/2+1 mixes.
func (s *SCMSketch) Insert(e []byte) {
	d := s.fam.Digest(e)
	o := s.offset(d)
	for i, row := range s.rows {
		base := s.fam.ModFromDigest(i, d, s.r)
		row.Inc(base)
		row.Inc(base + o)
	}
}

// Count returns the count-min estimate for e: the minimum over the d
// counters. Like the CM sketch, the estimate never underestimates.
func (s *SCMSketch) Count(e []byte) uint64 {
	d := s.fam.Digest(e)
	o := s.offset(d)
	min := ^uint64(0)
	for i, row := range s.rows {
		base := s.fam.ModFromDigest(i, d, s.r)
		if v := row.Get(base); v < min {
			min = v
		}
		if v := row.Get(base + o); v < min {
			min = v
		}
	}
	return min
}

// SizeBytes returns the total counter footprint.
func (s *SCMSketch) SizeBytes() int {
	total := 0
	for _, row := range s.rows {
		total += row.SizeBytes()
	}
	return total
}
