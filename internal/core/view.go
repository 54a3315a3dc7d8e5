package core

import (
	"shbf/internal/bitvec"
	"shbf/internal/hashing"
)

// MembershipView is a read-only ShBF_M over borrowed words, such as a
// frozen container's shard section, which may be mapped read-only. It
// answers with Membership's own probe, the scalar ContainsDigest and
// the ContainsGroup round kernel. It has no write path and no scratch
// of its own, so any number of goroutines may probe one view at once.
type MembershipView struct {
	f    Membership
	bits bitvec.Vector // f's bit array, over the borrowed words
}

// NewMembershipView returns a view of the ShBF_M with an m-bit base
// array, k bit positions per element, maximum offset w̄ and seed, whose
// bit array is words, laid out as BitWords lays it out: the data words,
// then the guard word. Any words after those are ignored. The words are
// not copied and must stay unchanged while the view is in use.
func NewMembershipView(m, k, wbar int, seed uint64, words []uint64) (*MembershipView, error) {
	if err := checkMembership(m, k, wbar); err != nil {
		return nil, err
	}
	v := new(MembershipView)
	var err error
	if v.bits, err = bitvec.Borrow(words, m+wbar-1); err != nil {
		return nil, err
	}
	v.f.init(&v.bits, m, k, wbar, seed)
	return v, nil
}

// ContainsDigest is Membership.ContainsDigest over the view's words.
func (v *MembershipView) ContainsDigest(d hashing.Digest) bool { return v.f.ContainsDigest(d) }

// ContainsGroup is Membership.ContainsGroup over the view's words.
func (v *MembershipView) ContainsGroup(dst []bool, idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	v.f.ContainsGroup(dst, idxs, ds, sc)
}
