package ingest

import (
	"fmt"
	"io"
	"sync"

	"shbf"
	"shbf/internal/sharded"
	"shbf/internal/wire"
)

// The edge agent. An agent sits where keys are born — a packet tap, a
// log tailer, a sensor gateway — and ships them toward a daemon over
// ShBU without ever blocking on the network's answer. Two flush
// strategies trade latency against wire cost:
//
//   - ModeKeys buffers raw keys and flushes them as packed add-batch
//     datagrams: O(keys) on the wire, but each key arrives upstream
//     within one flush interval of being observed.
//   - ModeEnvelope pre-aggregates keys into a local filter (built from
//     the daemon's own Spec, so the daemon can union it) and flushes
//     the filter as a fragmented ShBE envelope: O(filter bits) on the
//     wire regardless of how many keys the interval saw — the longer
//     the interval, the bigger the amortization.
//
// The envelope-mode filter is cumulative across flushes. That is the
// loss story: each flush carries everything the agent has ever seen,
// and union-merge is idempotent at the query level, so a dropped flush
// is healed in full by the next one — no acknowledgements, no
// retransmit queue. (Keys mode has no such cushion; what a lost
// datagram carried stays lost, which the receiver's loss accounting
// makes visible.)

// Mode selects an agent's flush strategy.
type Mode int

const (
	// ModeKeys flushes buffered keys as packed add-batch datagrams.
	ModeKeys Mode = iota + 1
	// ModeEnvelope flushes the local pre-aggregation filter as a
	// fragmented ShBE envelope.
	ModeEnvelope
)

// DefaultDatagram is the default flush datagram size: under the
// classic 1500-byte Ethernet MTU with headroom for IP/UDP headers, so
// datagrams survive paths that would fragment or drop larger ones.
const DefaultDatagram = 1400

// AgentConfig configures an Agent.
type AgentConfig struct {
	// Namespace is the daemon namespace every flush targets.
	Namespace string
	// Source identifies this agent in sequence accounting; pick a
	// random 64-bit value per process.
	Source uint64
	// Mode selects the flush strategy.
	Mode Mode
	// MaxDatagram caps encoded datagram size (0 = DefaultDatagram;
	// at most MaxDatagram the constant).
	MaxDatagram int
	// Filter is the local pre-aggregation state. In ModeEnvelope it is
	// required and must be built from the daemon's own Spec (shbf.New
	// of the membership spec for set ingest, of the multiplicity spec
	// for count ingest) or the daemon will refuse the merge. In
	// ModeKeys it is optional; when present (any shbf.Set — size it
	// with shbf.PlanMembership for one flush interval's keys) it
	// dedups keys within a flush, and is rebuilt empty from its Spec
	// at every flush.
	Filter shbf.Filter
}

// AgentStats is a point-in-time snapshot of an agent's sending side.
type AgentStats struct {
	// DatagramsSent counts every datagram handed to the writer.
	DatagramsSent uint64
	// BytesSent sums their encoded sizes.
	BytesSent uint64
	// KeysAdded counts accepted Add calls (after dedup).
	KeysAdded uint64
	// KeysDeduped counts Add calls suppressed by the keys-mode dedup
	// filter.
	KeysDeduped uint64
	// Flushes counts Flush calls that sent at least one datagram.
	Flushes uint64
	// Buffered is the keys currently awaiting flush (ModeKeys).
	Buffered int
}

// Agent pre-aggregates keys and flushes them as ShBU datagrams, one
// Write call per datagram. Safe for concurrent use.
type Agent struct {
	w   io.Writer
	cfg AgentConfig

	mu      sync.Mutex
	seq     uint64
	flushID uint64
	keys    [][]byte // ModeKeys buffer (copies)
	keyized int      // conservative packed size of keys
	dedup   shbf.Set // ModeKeys per-flush dedup, nil if unconfigured
	insert  func([]byte) error
	scratch []byte
	stats   AgentStats
}

// NewAgent builds an agent writing datagrams to w — a connected UDP
// socket in production, any io.Writer in tests (each Write is one
// datagram).
func NewAgent(w io.Writer, cfg AgentConfig) (*Agent, error) {
	if len(cfg.Namespace) == 0 || len(cfg.Namespace) > 255 {
		return nil, fmt.Errorf("ingest: namespace must be 1–255 bytes, got %d", len(cfg.Namespace))
	}
	if cfg.MaxDatagram == 0 {
		cfg.MaxDatagram = DefaultDatagram
	}
	if cfg.MaxDatagram > MaxDatagram {
		return nil, fmt.Errorf("ingest: MaxDatagram %d exceeds %d", cfg.MaxDatagram, MaxDatagram)
	}
	// The datagram must fit its headers plus at least a few key bytes.
	if cfg.MaxDatagram < headerLen+len(cfg.Namespace)+fragHeaderLen+64 {
		return nil, fmt.Errorf("ingest: MaxDatagram %d too small for namespace %q", cfg.MaxDatagram, cfg.Namespace)
	}
	a := &Agent{w: w, cfg: cfg}
	switch cfg.Mode {
	case ModeKeys:
		if cfg.Filter != nil {
			set, ok := cfg.Filter.(shbf.Set)
			if !ok {
				return nil, fmt.Errorf("ingest: keys-mode dedup filter %s is not a membership set", cfg.Filter.Kind())
			}
			a.dedup = set
		}
	case ModeEnvelope:
		switch f := cfg.Filter.(type) {
		case nil:
			return nil, fmt.Errorf("ingest: envelope mode needs a local filter")
		case shbf.Set:
			a.insert = func(key []byte) error { f.Add(key); return nil }
		case shbf.Updatable:
			a.insert = f.Insert
		default:
			return nil, fmt.Errorf("ingest: envelope-mode filter %s accepts neither adds nor inserts", cfg.Filter.Kind())
		}
	default:
		return nil, fmt.Errorf("ingest: unknown mode %d", cfg.Mode)
	}
	return a, nil
}

// Filter returns the agent's local filter (nil in keys mode without
// dedup). Callers use it to answer local queries at the edge. In keys
// mode with dedup the filter is rebuilt empty at every flush, so the
// returned value is a snapshot: keep calling Filter rather than
// holding one result across flushes.
func (a *Agent) Filter() shbf.Filter {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.Filter
}

// Add accepts one key. In keys mode it is buffered (auto-flushing
// full datagrams when the buffer reaches one datagram's capacity); in
// envelope mode it is folded into the local filter and costs nothing
// on the wire until Flush.
func (a *Agent) Add(key []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch a.cfg.Mode {
	case ModeKeys:
		if len(key)+5 > a.batchCapacity() {
			// Rejected up front: buffered, it would form a batch no
			// datagram can carry, and the flush error path would keep
			// restoring it — one poison key wedging every later flush.
			return fmt.Errorf("ingest: %d-byte key exceeds the %d-byte add-batch capacity of a %d-byte datagram",
				len(key), a.batchCapacity()-5, a.cfg.MaxDatagram)
		}
		if a.dedup != nil {
			if a.dedup.Contains(key) {
				a.stats.KeysDeduped++
				return nil
			}
			a.dedup.Add(key)
		}
		a.keys = append(a.keys, append([]byte(nil), key...))
		a.keyized += len(key) + 5 // uvarint length bound
		a.stats.KeysAdded++
		if a.keyized >= a.batchCapacity() {
			return a.flushKeysLocked()
		}
		return nil
	default: // ModeEnvelope
		if err := a.insert(key); err != nil {
			return err
		}
		a.stats.KeysAdded++
		return nil
	}
}

// AddAll accepts a batch (the shbf.Adder shape).
func (a *Agent) AddAll(keys [][]byte) error {
	for _, k := range keys {
		if err := a.Add(k); err != nil {
			return err
		}
	}
	return nil
}

// Flush ships everything buffered: the key buffer as add-batch
// datagrams (keys mode), or the local filter as one fragmented
// envelope (envelope mode). A flush with nothing new still sends in
// envelope mode — the cumulative envelope is the loss cushion.
func (a *Agent) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch a.cfg.Mode {
	case ModeKeys:
		if len(a.keys) == 0 {
			return nil
		}
		if err := a.flushKeysLocked(); err != nil {
			return err
		}
		if a.dedup != nil {
			// Rebuild the dedup set empty: dedup is per flush, so a
			// key seen again next interval is sent again (that is what
			// heals an earlier lost batch).
			fresh, err := shbf.New(a.cfg.Filter.Spec())
			if err != nil {
				return fmt.Errorf("ingest: rebuilding dedup filter: %w", err)
			}
			a.cfg.Filter = fresh
			a.dedup = fresh.(shbf.Set)
		}
		a.stats.Flushes++
		return nil
	default: // ModeEnvelope
		env, err := shbf.AppendDump(a.scratch[:0], a.cfg.Filter)
		if err != nil {
			return err
		}
		a.scratch = env[:0]
		if err := a.sendEnvelopeLocked(env); err != nil {
			return err
		}
		a.stats.Flushes++
		return nil
	}
}

// batchCapacity is the key bytes one add-batch datagram can carry.
func (a *Agent) batchCapacity() int {
	return a.cfg.MaxDatagram - headerLen - len(a.cfg.Namespace) - 6 // packed-keys block header
}

// flushKeysLocked greedily packs the key buffer into as few add-batch
// datagrams as fit and sends them all.
func (a *Agent) flushKeysLocked() error {
	cap := a.batchCapacity()
	keys := a.keys
	for len(keys) > 0 {
		batch, used := 0, 0
		for batch < len(keys) {
			cost := len(keys[batch]) + 5
			if used+cost > cap && batch > 0 {
				break
			}
			used += cost
			batch++
		}
		if err := a.sendLocked(&Datagram{
			Type:      TypeAddBatch,
			Namespace: a.cfg.Namespace,
			KeyWidth:  wire.KeyWidth(keys[:batch]),
			Keys:      keys[:batch],
		}); err != nil {
			// Sent prefixes stay sent; keep the rest buffered.
			a.keys = keys
			a.keyized = packedBound(keys)
			return err
		}
		keys = keys[batch:]
	}
	a.keys, a.keyized = a.keys[:0], 0
	return nil
}

// sendEnvelopeLocked fragments env into datagrams under one flush ID.
func (a *Agent) sendEnvelopeLocked(env []byte) error {
	chunk := a.cfg.MaxDatagram - headerLen - len(a.cfg.Namespace) - fragHeaderLen
	count := (len(env) + chunk - 1) / chunk
	if count == 0 {
		count = 1
	}
	if count > 0xffff {
		return fmt.Errorf("ingest: envelope of %d bytes needs %d fragments, max %d", len(env), count, 0xffff)
	}
	a.flushID++
	for i := 0; i < count; i++ {
		off := i * chunk
		end := off + chunk
		if end > len(env) {
			end = len(env)
		}
		if err := a.sendLocked(&Datagram{
			Type:       TypeEnvelopeFrag,
			Namespace:  a.cfg.Namespace,
			FlushID:    a.flushID,
			FragIndex:  i,
			FragCount:  count,
			EnvLen:     len(env),
			FragOffset: off,
			Frag:       env[off:end],
		}); err != nil {
			return err
		}
	}
	return nil
}

// sendLocked stamps identity and sequence onto d, encodes it, and
// writes one datagram.
func (a *Agent) sendLocked(d *Datagram) error {
	a.seq++
	d.Source, d.Seq = a.cfg.Source, a.seq
	buf, err := Append(nil, d)
	if err != nil {
		a.seq-- // nothing left the agent
		return err
	}
	if _, err := a.w.Write(buf); err != nil {
		// Fire-and-forget: the datagram is spent (the kernel may have
		// sent it) but the caller should know the path is unhappy.
		return err
	}
	a.stats.DatagramsSent++
	a.stats.BytesSent += uint64(len(buf))
	return nil
}

// Stats snapshots the agent's sending side.
func (a *Agent) Stats() AgentStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.Buffered = len(a.keys)
	return s
}

// packedBound is the conservative packed-size bound flushKeysLocked
// budgets with.
func packedBound(keys [][]byte) int {
	n := 0
	for _, k := range keys {
		n += len(k) + 5
	}
	return n
}

// Forwarder makes an agent a topology hop: it implements Handler, so
// a Receiver can feed one agent's flushes into another agent, which
// re-aggregates and flushes upstream on its own cadence. Edge fan-in
// becomes a tree — N leaf agents hit one forwarder, the daemon sees
// one source's worth of traffic.
type Forwarder struct {
	a *Agent
}

// NewForwarder wraps an agent as a datagram handler.
func NewForwarder(a *Agent) *Forwarder { return &Forwarder{a: a} }

// HandleBatch folds a received key batch into the forwarder's agent.
func (f *Forwarder) HandleBatch(namespace string, keys [][]byte) DropReason {
	if namespace != f.a.cfg.Namespace {
		return DropUnknownNamespace
	}
	if err := f.a.AddAll(keys); err != nil {
		return DropMerge
	}
	return DropNone
}

// HandleEnvelope unions a received envelope into the forwarder's
// local filter. Only envelope-mode forwarders can merge state; the
// filters must agree on Spec as everywhere else.
func (f *Forwarder) HandleEnvelope(namespace string, envelope []byte) DropReason {
	if namespace != f.a.cfg.Namespace {
		return DropUnknownNamespace
	}
	if f.a.cfg.Mode != ModeEnvelope {
		return DropMode
	}
	src, rest, err := shbf.Decode(envelope)
	if err != nil || len(rest) != 0 {
		return DropDecode
	}
	switch dst := f.a.cfg.Filter.(type) {
	case *sharded.Filter:
		srcF, ok := src.(*sharded.Filter)
		if !ok {
			return DropMerge
		}
		if err := dst.Union(srcF); err != nil {
			return DropMerge
		}
	case *sharded.Multiplicity:
		srcF, ok := src.(*sharded.Multiplicity)
		if !ok {
			return DropMerge
		}
		if err := dst.Union(srcF); err != nil {
			return DropMerge
		}
	default:
		return DropMode
	}
	return DropNone
}
