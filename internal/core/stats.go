package core

// This file adds the occupancy/geometry accessors the serving layer
// (internal/sharded, internal/server) reads for its stats reporting.
// They complement the construction-time accessors defined next to each
// type.

// SizeBytes returns the combined footprint of the query-side bit array
// B and the counter array C (the off-chip hash tables are excluded, as
// in the paper's on-chip accounting).
func (a *CountingAssociation) SizeBytes() int {
	return a.bits.SizeBytes() + a.counts.SizeBytes()
}

// N returns the number of distinct stored elements, tracked exactly by
// the backing hash table. In the unsafe update mode (Section 5.3.1)
// there is no backing table and N returns -1.
func (f *CountingMultiplicity) N() int {
	if f.table == nil {
		return -1
	}
	return f.table.Len()
}
