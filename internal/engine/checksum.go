package engine

// Checksum digests the relation's payload in the packed-uint64 row
// format — the future exchange wire format — so a consumer can verify
// an exchanged relation against the checksum its producer delivered.
// The digest is FNV-1a over every value with row and partition
// boundary marks folded in, so it is sensitive to value content, row
// grouping and partition placement, and is byte-stable across runs for
// the deterministic operators in this engine.
//
// Executors compute checksums only while a cluster.FaultPlan is
// active; the fault-free hot path never calls this.
func (r *Relation) Checksum() uint64 {
	h := fnvOffset
	for _, part := range r.parts {
		for i := 0; i < part.n; i++ {
			for _, v := range part.Row(i) {
				h ^= uint64(v)
				h *= fnvPrime
			}
			// Row boundary: [a,b][c] must not collide with [a][b,c].
			h ^= rowBoundaryMark
			h *= fnvPrime
		}
		// Partition boundary: placement is part of the exchange contract.
		h ^= partBoundaryMark
		h *= fnvPrime
	}
	return h
}

// Boundary marks folded into Checksum between rows and partitions.
// Arbitrary odd constants outside the dense dictionary-ID range.
const (
	rowBoundaryMark  uint64 = 0x9E3779B97F4A7C55
	partBoundaryMark uint64 = 0xC2B2AE3D27D4EB4F
)
