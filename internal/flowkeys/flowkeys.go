// Package flowkeys generates the deterministic 13-byte 5-tuple
// flow-ID workload shared by the root package's Perf benchmarks and
// allocation test and by the TestGate* timing gates, so they all
// measure identical keys and their numbers stay comparable.
package flowkeys

import "shbf/internal/hashing"

// KeyBytes is the element size: the paper's 13-byte 5-tuple flow ID.
const KeyBytes = 13

// Keys returns n deterministic 13-byte keys, slices of one flat
// backing array.
func Keys(n int) [][]byte {
	flat := make([]byte, n*KeyBytes)
	state := uint64(0x5b8f_bee5)
	for i := 0; i+8 <= len(flat); i += 8 {
		v := hashing.SplitMix64(&state)
		for b := 0; b < 8; b++ {
			flat[i+b] = byte(v >> (8 * b))
		}
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = flat[i*KeyBytes : (i+1)*KeyBytes]
	}
	return keys
}
