package main

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"shbf/client"
	"shbf/internal/server"
	"shbf/internal/wire"
)

// mix is a request mix in percent; the shares sum to 100.
type mix struct {
	check, classify, counts, writeMem, writeMult int
}

// workload is one traffic shape (see README.md for why each exists).
type workload struct {
	name      string
	transport string // "shbp" or "http", for the timed-phase callers
	callers   int
	batch     int
	mix       mix

	// ns is the preloaded tenant the reads address ("" = the default
	// namespace); nsConfig creates it when it is not the default.
	ns       string
	nsConfig *client.NamespaceConfig
	nMember  uint64
	nAssoc   uint64
	nMult    uint64

	// writeNS receives the timed-phase writes. Keeping them out of ns
	// keeps ns's final state — which the accuracy metrics read — the
	// same on every commit, however many writes a run completed.
	writeNS string

	// fprProbes is the number of non-members the verification pass
	// counts false positives over; sized so that several hundred are.
	fprProbes uint64

	// ingest, when set, streams fresh keys into ns through an
	// ingest.Agent at ingestRate keys/s, flushed every flushEvery.
	ingest     bool
	ingestRate int
	flushEvery time.Duration
}

const preloadBatch = 4096

// smallMix is the small-batch request mix: 60% membership, 15%
// association, 15% multiplicity, 10% writes of fresh keys.
var smallMix = mix{check: 60, classify: 15, counts: 15, writeMem: 5, writeMult: 5}

// workloads are the benchmark's traffic shapes by name.
var workloads = map[string]*workload{
	"small-batch": {
		name: "small-batch", transport: "shbp", callers: 2, batch: 16, mix: smallMix,
		// Default geometry: 12 Mibit membership and association, 18
		// Mibit multiplicity; membership loaded to ~16 bits per key,
		// association and multiplicity to ~24 bits per distinct key.
		nMember: 12 << 20 / 16, nAssoc: 12 << 20 / 24, nMult: 18 << 20 / 24,
		writeNS: "writes", fprProbes: 2 << 20,
	},
	"small-http": {
		name: "small-http", transport: "http", callers: 2, batch: 16, mix: smallMix,
		nMember: 12 << 20 / 16, nAssoc: 12 << 20 / 24, nMult: 18 << 20 / 24,
		writeNS: "writes", fprProbes: 2 << 20,
	},
	"large-batch": {
		name: "large-batch", transport: "shbp", callers: 2, batch: 4096,
		mix: mix{check: 70, classify: 15, counts: 15},
		ns:  "large",
		nsConfig: &client.NamespaceConfig{Name: "large",
			MembershipBits: 256 << 20, AssociationBits: 64 << 20, MultiplicityBits: 64 << 20},
		nMember: 8 << 20, nAssoc: 1 << 18, nMult: 1 << 18,
		fprProbes: 64 << 20,
	},
	"ingest": {
		name: "ingest", transport: "shbp", callers: 1, batch: 256,
		mix: mix{check: 100},
		ns:  "ingest",
		// 56 Mibit holds the 1Mi preload plus 2.4M streamed keys (12 s
		// at 200k keys/s) at ~17 bits per key.
		nsConfig: &client.NamespaceConfig{Name: "ingest", MembershipBits: 56 << 20},
		nMember:  1 << 20, nAssoc: 1 << 18, nMult: 1 << 18,
		fprProbes: 2 << 20,
		ingest:    true, ingestRate: 200_000, flushEvery: 10 * time.Millisecond,
	},
}

// workloadNames is the order results are documented in.
var workloadNames = []string{"small-batch", "large-batch", "ingest", "small-http"}

// config is the read tenant's resolved geometry: shbfd's defaults (its
// flags are left at their defaults) with the tenant's overrides.
func (w *workload) config() server.Config {
	cfg := server.DefaultConfig()
	if nc := w.nsConfig; nc != nil {
		cfg.MembershipBits = cmp.Or(nc.MembershipBits, cfg.MembershipBits)
		cfg.AssociationBits = cmp.Or(nc.AssociationBits, cfg.AssociationBits)
		cfg.MultiplicityBits = cmp.Or(nc.MultiplicityBits, cfg.MultiplicityBits)
	}
	return cfg
}

func (w *workload) model(seed uint64) *model {
	return &model{g: newKeygen(seed), nMember: w.nMember, nAssoc: w.nAssoc, nMult: w.nMult, maxCount: w.config().MaxCount}
}

// setUp creates the workload's tenants and preloads them over two ShBP
// connections working through one list of 4096-key batches: membership
// AddAll calls, S1 and S2 InsertAll calls, and multiplicity AddAll
// calls that repeat each key count(i) times.
func (w *workload) setUp(conns [2]*client.Client, t tally, m *model) error {
	c := conns[0]
	if err := c.Ping(); !t.record("shbp", wire.OpPing, err) {
		return fmt.Errorf("ping: %w", err)
	}
	for _, cfg := range []*client.NamespaceConfig{w.nsConfig, {Name: w.writeNS}} {
		if cfg == nil || cfg.Name == "" {
			continue
		}
		if err := c.CreateNamespace(*cfg); !t.record("shbp", wire.OpNamespaceCreate, err) {
			return fmt.Errorf("creating %s: %w", cfg.Name, err)
		}
	}
	var (
		wg    sync.WaitGroup
		errs  [2]error
		tals  = [2]tally{{}, {}}
		batch = preloadBatches(m)
	)
	for i, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ns := conn.Namespace(w.ns)
			b := newKeys(preloadBatch)
			keys := make([][]byte, 0, preloadBatch)
			for j := i; j < len(batch) && errs[i] == nil; j += len(conns) {
				errs[i] = batch[j].send(ns, tals[i], m, b, keys)
			}
		}()
	}
	wg.Wait()
	t.merge(tals[0])
	t.merge(tals[1])
	return errors.Join(errs[0], errs[1])
}

// preload is one set-up batch: keys [lo, hi) of a key space, sent as
// one request.
type preload struct {
	op     byte
	set    int // association set for OpAssociationAdd
	lo, hi uint64
}

// preloadBatches lists the set-up requests: membership, then S1, S2
// and the multiplicities, each cut into batches of at most 4096 keys
// (for multiplicity, 4096 increments).
func preloadBatches(m *model) []preload {
	var out []preload
	for lo := uint64(0); lo < m.nMember; lo += preloadBatch {
		out = append(out, preload{op: wire.OpMembershipAdd, lo: lo, hi: min(lo+preloadBatch, m.nMember)})
	}
	for _, set := range []int{1, 2} {
		for lo := uint64(0); lo < m.nAssoc; lo += preloadBatch {
			out = append(out, preload{op: wire.OpAssociationAdd, set: set, lo: lo, hi: min(lo+preloadBatch, m.nAssoc)})
		}
	}
	lo, n := uint64(0), 0
	for i := range m.nMult {
		c := m.count(i)
		if n+c > preloadBatch {
			out = append(out, preload{op: wire.OpMultiplicityAdd, lo: lo, hi: i})
			lo, n = i, 0
		}
		n += c
	}
	if lo < m.nMult {
		out = append(out, preload{op: wire.OpMultiplicityAdd, lo: lo, hi: m.nMult})
	}
	return out
}

// fill writes the batch's keys into b (multiplicity keys repeated
// count(i) times in keys) and returns them.
func (p preload) fill(m *model, b, keys [][]byte) [][]byte {
	switch p.op {
	case wire.OpMembershipAdd:
		for i := p.lo; i < p.hi; i++ {
			m.g.put(b[i-p.lo], spaceMember, i)
		}
		return b[:p.hi-p.lo]
	case wire.OpAssociationAdd:
		n := 0
		for i := p.lo; i < p.hi; i++ {
			if r := m.region(i); (p.set == 1 && r.InS1()) || (p.set == 2 && r.InS2()) {
				m.g.put(b[n], spaceAssoc, i)
				n++
			}
		}
		return b[:n]
	default: // wire.OpMultiplicityAdd
		keys = keys[:0]
		for i := p.lo; i < p.hi; i++ {
			k := b[i-p.lo]
			m.g.put(k, spaceMult, i)
			for range m.count(i) {
				keys = append(keys, k)
			}
		}
		return keys
	}
}

// send issues the batch on ns; b and keys are the caller's reusable buffers.
func (p preload) send(ns *client.Namespace, t tally, m *model, b, keys [][]byte) error {
	var err error
	switch keys = p.fill(m, b, keys); p.op {
	case wire.OpMembershipAdd:
		err = ns.Set().AddAll(keys)
	case wire.OpAssociationAdd:
		err = ns.Associator().InsertAll(p.set, keys)
	case wire.OpMultiplicityAdd:
		err = ns.Counter().AddAll(keys)
	}
	if !t.record("shbp", p.op, err) {
		return fmt.Errorf("preloading %s: %w", wire.OpName(p.op), err)
	}
	return nil
}
