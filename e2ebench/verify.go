package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"shbf/client"
	"shbf/internal/wire"
)

// accuracy is what the verification pass measured on the final state.
type accuracy struct {
	fpProbes   uint64
	fps        uint64
	assocN     uint64
	assocClear uint64
	multN      uint64
	multExact  uint64
	ingestSent uint64
	ingestLost []uint64 // spaceIngest indices the daemon does not hold
}

func (a accuracy) fpr() float64 { return float64(a.fps) / float64(a.fpProbes) }
func (a accuracy) assocClearFrac() float64 {
	return float64(a.assocClear) / float64(a.assocN)
}
func (a accuracy) multExactFrac() float64 { return float64(a.multExact) / float64(a.multN) }

// arrived is how many of the ingest keys [lo, hi) the daemon holds.
func (a accuracy) arrived(lo, hi uint64) uint64 {
	n := hi - lo
	for _, i := range a.ingestLost {
		if lo <= i && i < hi {
			n--
		}
	}
	return n
}

// fprBase is the first spaceNonMember index of the false-positive
// probes. The timed phase draws its non-members from all of [0, 2^56)
// and may repeat some of them; no spaceNonMember key is ever added.
const fprBase = 1 << 54

// verify is the post-run pass over the read tenant's final state, which
// is the same on every commit for a given seed:
//   - membership: every preloaded member is asked of the daemon and must
//     answer present. Every ingested key is asked too; an absent one
//     was lost (UDP acks nothing, so a loss is a failure, not a wrong
//     answer). The false-positive rate is counted on the daemon's
//     answers for w.fprProbes never-added keys;
//   - association and multiplicity: every stored key is asked of the
//     daemon; an answer that excludes the true region, or a count below
//     the true count, is a violation;
//   - the write tenant: every acked timed-phase write must be present.
func verify(conns [2]*client.Client, t tally, w *workload, m *model, p []*phase, ingestSent uint64) (accuracy, violations, error) {
	var acc accuracy
	var v violations
	c := conns[0]
	ns := c.Namespace(w.ns)

	// Preloaded members, on both connections.
	err := askRange(conns, t, w.ns, m, spaceMember, 0, m.nMember, func(_ uint64, keys [][]byte, in []bool) {
		for k := range keys {
			if !in[k] {
				v.add("false negative for preloaded member %x", keys[k])
			}
		}
	})
	if err != nil {
		return acc, v, err
	}
	if ingestSent > 0 {
		acc.ingestSent = ingestSent
		err := askRange(conns, t, w.ns, m, spaceIngest, 0, ingestSent, func(lo uint64, keys [][]byte, in []bool) {
			for k := range keys {
				if !in[k] {
					acc.ingestLost = append(acc.ingestLost, lo+uint64(k))
				}
			}
		})
		if err != nil {
			return acc, v, err
		}
	}

	// False positives: never-added keys, asked of the daemon.
	acc.fpProbes = w.fprProbes
	err = askRange(conns, t, w.ns, m, spaceNonMember, fprBase, w.fprProbes, func(_ uint64, _ [][]byte, in []bool) {
		for _, yes := range in {
			if yes {
				acc.fps++
			}
		}
	})
	if err != nil {
		return acc, v, err
	}

	b := newKeys(preloadBatch)
	// Association: every key of S1 ∪ S2, asked of the daemon.
	assoc := ns.Associator()
	for lo := uint64(0); lo < m.nAssoc; lo += preloadBatch {
		n := min(preloadBatch, m.nAssoc-lo)
		for j := range n {
			m.g.put(b[j], spaceAssoc, lo+j)
		}
		got, err := assoc.Classify(b[:n])
		if !t.record("shbp", wire.OpAssociationQuery, err) {
			return acc, v, fmt.Errorf("association pass: %w", err)
		}
		for j, r := range got {
			truth := m.region(lo + uint64(j))
			if !r.Contains(truth) {
				v.add("association answer %v excludes true region %v for %x", r, truth, b[j])
			}
			if r == truth {
				acc.assocClear++
			}
		}
		acc.assocN += n
	}

	// Multiplicity: every stored key, asked of the daemon.
	ctr := ns.Counter()
	for lo := uint64(0); lo < m.nMult; lo += preloadBatch {
		n := min(preloadBatch, m.nMult-lo)
		for j := range n {
			m.g.put(b[j], spaceMult, lo+j)
		}
		got, err := ctr.Counts(b[:n])
		if !t.record("shbp", wire.OpMultiplicityCount, err) {
			return acc, v, fmt.Errorf("multiplicity pass: %w", err)
		}
		for j, cnt := range got {
			truth := m.count(lo + uint64(j))
			if cnt < truth {
				v.add("count %d below true count %d for %x", cnt, truth, b[j])
			}
			if cnt == truth {
				acc.multExact++
			}
		}
		acc.multN += n
	}

	// Acked timed-phase writes, asked of the daemon's write tenant.
	if w.writeNS != "" {
		wns := c.Namespace(w.writeNS)
		for _, ph := range p {
			if err := checkWrites(wns, t, m, w.batch, ph.ackedMem, spaceWriteMem, &v); err != nil {
				return acc, v, err
			}
			if err := checkWrites(wns, t, m, w.batch, ph.ackedMult, spaceWriteMult, &v); err != nil {
				return acc, v, err
			}
		}
	}
	return acc, v, nil
}

// askRange asks the daemon about keys (space, [lo, lo+n)) in 4096-key
// Check requests, alternating between the connections (two requests in
// flight); fn sees each batch, its first index and its answers, one
// batch at a time.
func askRange(conns [2]*client.Client, t tally, ns string, m *model, space uint8, lo, n uint64, fn func(first uint64, keys [][]byte, in []bool)) error {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs [2]error
		tals = [2]tally{{}, {}}
	)
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := c.Namespace(ns).Set()
			b := newKeys(preloadBatch)
			for s := uint64(i) * preloadBatch; s < n; s += 2 * preloadBatch {
				cnt := min(preloadBatch, n-s)
				for j := range cnt {
					m.g.put(b[j], space, lo+s+j)
				}
				in, err := set.Check(b[:cnt])
				if !tals[i].record("shbp", wire.OpMembershipContains, err) {
					errs[i] = fmt.Errorf("verification reads: %w", err)
					return
				}
				mu.Lock()
				fn(lo+s, b[:cnt], in)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.merge(tals[0])
	t.merge(tals[1])
	return errors.Join(errs[0], errs[1])
}

// checkWrites asks the daemon for every key of the acked write batches
// starting at firsts: a membership write must answer present, a
// multiplicity write (each key added once) must count at least 1.
func checkWrites(wns *client.Namespace, t tally, m *model, batch int, firsts []uint64, space uint8, v *violations) error {
	b := newKeys(preloadBatch)
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		keys := b[:n]
		n = 0
		if space == spaceWriteMem {
			got, err := wns.Set().Check(keys)
			if !t.record("shbp", wire.OpMembershipContains, err) {
				return fmt.Errorf("write check: %w", err)
			}
			for k, in := range got {
				if !in {
					v.add("false negative for acked write %x", keys[k])
				}
			}
			return nil
		}
		got, err := wns.Counter().Counts(keys)
		if !t.record("shbp", wire.OpMultiplicityCount, err) {
			return fmt.Errorf("write check: %w", err)
		}
		for k, cnt := range got {
			if cnt < 1 {
				v.add("count %d below true count 1 for acked write %x", cnt, keys[k])
			}
		}
		return nil
	}
	for _, first := range firsts {
		if n+batch > preloadBatch {
			if err := flush(); err != nil {
				return err
			}
		}
		for j := range batch {
			m.g.put(b[n], space, first+uint64(j))
			n++
		}
	}
	return flush()
}

// --- metrics ----------------------------------------------------------------

// series is one sample line of a Prometheus text scrape.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseScrape reads the sample lines of a Prometheus text exposition.
func parseScrape(text []byte) ([]series, error) {
	var out []series
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("scrape line %q has no value", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape line %q: %w", line, err)
		}
		s := series{name: line[:sp], labels: map[string]string{}, value: val}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body := strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
			for body != "" {
				k, rest, ok := strings.Cut(body, `="`)
				if !ok {
					return nil, fmt.Errorf("scrape labels %q", body)
				}
				v, rest, ok := strings.Cut(rest, `"`)
				if !ok {
					return nil, fmt.Errorf("scrape labels %q", body)
				}
				s.labels[k] = v
				body = strings.TrimPrefix(rest, ",")
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// gauge returns the value of the first series named name whose labels
// include all of want.
func gauge(all []series, name string, want map[string]string) (float64, bool) {
	for _, s := range all {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.value, true
		}
	}
	return 0, false
}

// sumSeries adds up every series named name.
func sumSeries(all []series, name string) float64 {
	var sum float64
	for _, s := range all {
		if s.name == name {
			sum += s.value
		}
	}
	return sum
}

// crossCheck compares the benchmark's own request tally with the
// daemon's shbf_requests_total, row by row: every nonzero row on
// either side must be equal on the other. Calls that got no answer
// (transport errors) are left out; the daemon cannot know about all
// of them.
func crossCheck(all []series, t tally) []string {
	daemon := map[reqKey]int64{}
	for _, s := range all {
		if s.name == "shbf_requests_total" && s.value != 0 {
			daemon[reqKey{s.labels["transport"], s.labels["op"], s.labels["status"]}] = int64(s.value)
		}
	}
	var diffs []string
	keys := map[reqKey]bool{}
	for k := range daemon {
		keys[k] = true
	}
	for k, n := range t {
		if k.status != transportError && n != 0 {
			keys[k] = true
		}
	}
	for k := range keys {
		if daemon[k] != t[k] {
			diffs = append(diffs, fmt.Sprintf("%s/%s/%s: benchmark %d, daemon %d", k.transport, k.op, k.status, t[k], daemon[k]))
		}
	}
	sort.Strings(diffs)
	return diffs
}
