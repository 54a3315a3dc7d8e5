package main

import (
	"encoding/binary"
	"math/rand/v2"

	"shbf"
)

// keyLen is the paper's flow ID: a 13-byte 5-tuple (source and
// destination IPv4 address, source and destination port, protocol).
const keyLen = 13

// Key spaces. Every generated key is named by (space, index); the
// spaces are disjoint, so the reference model knows each key's truth
// from its name alone and never has to store the key.
const (
	spaceMember    = 1 // membership preload
	spaceNonMember = 2 // membership probes that were never added
	spaceAssoc     = 3 // association preload (S1 ∪ S2)
	spaceMult      = 4 // multiplicity preload
	spaceWriteMem  = 5 // timed-phase membership writes (write tenant)
	spaceWriteMult = 6 // timed-phase multiplicity writes (write tenant)
	spaceIngest    = 7 // the ingest stream
)

// mix64 is the SplitMix64 finalizer. It is a bijection on uint64, which
// is what makes generated keys distinct.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keygen derives 13-byte 5-tuple keys from the workload seed.
type keygen struct{ salt uint64 }

func newKeygen(seed uint64) keygen { return keygen{salt: mix64(seed ^ 0x5348_4246_6265_6e63)} }

// put writes key (space, i) into dst[:keyLen]; i must be below 2^56.
// The first 8 bytes (the two addresses) are a bijection of (space, i),
// so distinct names never give equal keys.
func (g keygen) put(dst []byte, space uint8, i uint64) {
	v := mix64(g.salt ^ (uint64(space)<<56 | i))
	binary.BigEndian.PutUint64(dst, v)
	w := mix64(v ^ g.salt)
	binary.BigEndian.PutUint32(dst[8:], uint32(w)) // ports
	dst[12] = 6                                    // TCP
	if w>>32&1 == 1 {
		dst[12] = 17 // UDP
	}
}

// newKeys returns n reusable key slots backed by one buffer.
func newKeys(n int) [][]byte {
	buf := make([]byte, n*keyLen)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = buf[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
	}
	return keys
}

// model is the exact reference the daemon's answers are checked
// against. Its sets are index ranges of the key spaces: membership is
// spaceMember[0, nMember); S1 and S2 partition spaceAssoc[0, nAssoc)
// into S1−S2, S1∩S2 and S2−S1 by index; multiplicity holds
// spaceMult[0, nMult) with the counts of count(i).
type model struct {
	g        keygen
	nMember  uint64
	nAssoc   uint64
	nMult    uint64
	maxCount int
}

// region is the true association region of spaceAssoc key i.
func (m *model) region(i uint64) shbf.Region {
	switch i % 3 {
	case 0:
		return shbf.RegionS1Only
	case 1:
		return shbf.RegionS2Only
	default:
		return shbf.RegionBoth
	}
}

// count is the true multiplicity of spaceMult key i: geometric with
// mean about 2, capped at the filter's maximum count, like the heavy-
// tailed flow sizes the paper's multiplicity queries count.
func (m *model) count(i uint64) int {
	c := 1
	for r := mix64(m.g.salt ^ 0xc0de ^ i); r&1 == 1 && c < m.maxCount; r >>= 1 {
		c++
	}
	return c
}

// callerRand is the seeded request stream of one caller.
func callerRand(seed uint64, caller int) *rand.Rand {
	return rand.New(rand.NewPCG(mix64(seed), mix64(seed^uint64(caller+1)<<32)))
}
