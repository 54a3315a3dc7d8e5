package main

import (
	"testing"

	"shbf"
)

func TestKeysDistinctAcrossSpaces(t *testing.T) {
	g := newKeygen(7)
	seen := map[string]bool{}
	k := make([]byte, keyLen)
	for _, space := range []uint8{spaceMember, spaceNonMember, spaceAssoc, spaceMult, spaceIngest} {
		for i := range uint64(20000) {
			g.put(k, space, i)
			if seen[string(k)] {
				t.Fatalf("key (%d, %d) repeats an earlier key", space, i)
			}
			seen[string(k)] = true
		}
	}
}

func TestKeysFollowSeed(t *testing.T) {
	key := func(seed uint64) string {
		k := make([]byte, keyLen)
		newKeygen(seed).put(k, spaceMember, 5)
		return string(k)
	}
	if key(1) != key(1) {
		t.Error("same seed gave different keys")
	}
	if key(1) == key(2) {
		t.Error("different seeds gave the same key")
	}
}

func TestModelTruth(t *testing.T) {
	m := &model{g: newKeygen(3), maxCount: 57}
	regions := map[shbf.Region]int{}
	total := 0
	for i := range uint64(30000) {
		regions[m.region(i)]++
		c := m.count(i)
		if c < 1 || c > 57 {
			t.Fatalf("count(%d) = %d out of [1, 57]", i, c)
		}
		total += c
	}
	if regions[shbf.RegionS1Only] != 10000 || regions[shbf.RegionBoth] != 10000 || regions[shbf.RegionS2Only] != 10000 {
		t.Errorf("regions = %v, want a third each", regions)
	}
	if mean := float64(total) / 30000; mean < 1.9 || mean > 2.1 {
		t.Errorf("mean count %v, want about 2", mean)
	}
}
