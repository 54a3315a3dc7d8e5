package server

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"shbf/internal/wire"
)

// BenchmarkPreloadCountingWrites times the counting writes of a bulk
// preload: 4096-key association and multiplicity add requests of fresh
// keys, run through dispatch on the default namespace at the daemon's
// default geometry (12 Mibit association and 18 Mibit multiplicity,
// k = 8, 16 shards), as shbfd applies a client's preload. The key
// model is e2ebench's: association key i is in S1 when i%3 != 1 and in
// S2 when i%3 != 0, so half of the S2 inserts move a key from S1−S2 to
// S1∩S2 (S2 runs after an untimed S1 preload); multiplicity key i is
// sent count(i) times, a geometric count with mean about 2. A server
// takes as many keys as the small workloads preload (24 bits per
// distinct key), then the benchmark builds a fresh one off the clock.
// Batches are filled off the clock too. ns/update is the timed wall
// over the updates applied: keys for S1 and S2, increments for mult.
//
//	go test -run '^$' -bench PreloadCountingWrites -benchtime 200x ./internal/server/
func BenchmarkPreloadCountingWrites(b *testing.B) {
	for _, bc := range []struct {
		name    string
		op, set byte
	}{
		{"S1", wire.OpAssociationAdd, 1},
		{"S2", wire.OpAssociationAdd, 2},
		{"mult", wire.OpMultiplicityAdd, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			space := uint64(cfg.AssociationBits / 24)
			if bc.op == wire.OpMultiplicityAdd {
				space = uint64(cfg.MultiplicityBits / 24)
			}
			p := preloader{set: bc.set, keys: make([][]byte, 0, preloadBatch)}
			var (
				s       *Server
				resp    wire.Response
				sc      dispatchScratch
				updates int
			)
			b.StopTimer()
			for range b.N {
				if s == nil || p.next >= space {
					var err error
					if s, err = New(cfg); err != nil {
						b.Fatal(err)
					}
					p.next = 0
					if bc.set == 2 {
						for s1 := (preloader{set: 1}); s1.next < space; {
							req := wire.Request{Op: wire.OpAssociationAdd, Set: 1, Keys: s1.fill(space)}
							if err := s.dispatch(&req, &resp, &sc); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				req := wire.Request{Op: bc.op, Set: bc.set, Keys: p.fill(space)}
				b.StartTimer()
				err := s.dispatch(&req, &resp, &sc)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				updates += len(req.Keys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(updates), "ns/update")
		})
	}
}

// preloadBatch is the preload's request size: keys for association,
// increments for multiplicity.
const preloadBatch = 4096

// preloader cuts one key space into preload requests.
type preloader struct {
	set  byte // 1 or 2 for the association sets, 0 for multiplicity
	next uint64
	buf  [preloadBatch][16]byte
	keys [][]byte
}

// fill returns the next request's keys from [next, space).
func (p *preloader) fill(space uint64) [][]byte {
	p.keys = p.keys[:0]
	for ; p.next < space; p.next++ {
		i := p.next
		if p.set != 0 {
			if (p.set == 1 && i%3 == 1) || (p.set == 2 && i%3 == 0) {
				continue
			}
			if len(p.keys) == preloadBatch {
				break
			}
			p.keys = append(p.keys, p.key(len(p.keys), i))
			continue
		}
		// Multiplicity: a geometric count with mean about 2, capped at
		// the default maximum count.
		c := min(1+bits.TrailingZeros64(^mix(i^0xc0de)), DefaultConfig().MaxCount)
		if len(p.keys)+c > preloadBatch {
			break
		}
		k := p.key(len(p.keys), i)
		for range c {
			p.keys = append(p.keys, k)
		}
	}
	return p.keys
}

// key writes key i of the space into slot j of the batch buffer.
func (p *preloader) key(j int, i uint64) []byte {
	k := p.buf[j%preloadBatch][:]
	binary.LittleEndian.PutUint64(k, mix(i))
	binary.LittleEndian.PutUint64(k[8:], mix(^i))
	return k
}

// mix is the SplitMix64 finalizer, a bijection on uint64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
