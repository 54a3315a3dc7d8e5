package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"shbf"
	"shbf/internal/wire"
)

// Namespace is a handle on one tenant: a factory for the typed query
// handles ([Namespace.Set], [Namespace.Counter],
// [Namespace.Associator], [Namespace.Window]) plus tenant-level
// operations (stats, rotation).
type Namespace struct {
	c    *Client
	name string
}

// Name returns the namespace this handle addresses.
func (ns *Namespace) Name() string { return ns.name }

// WithContext returns a handle on the same namespace whose calls are
// bounded by ctx (see [Client.WithContext]). Typed handles created
// from it inherit the bound:
//
//	set := c.Namespace("tenant-a").WithContext(ctx).Set()
func (ns *Namespace) WithContext(ctx context.Context) *Namespace {
	return &Namespace{c: ns.c.WithContext(ctx), name: ns.name}
}

// Stats fetches the namespace's occupancy/accuracy snapshot.
func (ns *Namespace) Stats() (Stats, error) {
	resp, err := ns.do(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(resp.Blob, &st); err != nil {
		return Stats{}, fmt.Errorf("client: decoding stats: %w", err)
	}
	return st, nil
}

// Rotate retires the namespace's oldest window generation, returning
// the rotated filters and the new epoch. Rotating a non-windowed
// namespace is a conflict (IsConflict).
func (ns *Namespace) Rotate() ([]string, uint64, error) {
	resp, err := ns.do(&wire.Request{Op: wire.OpRotate})
	if err != nil {
		return nil, 0, err
	}
	return append([]string(nil), resp.Rotated...), resp.Epoch, nil
}

// MembershipEnvelope exports the namespace's membership filter as a
// raw ShBE envelope — the anti-entropy payload to [Namespace.Merge]
// into a replica (GET /v2/namespaces/{ns}/membership/envelope).
func (ns *Namespace) MembershipEnvelope() ([]byte, error) {
	resp, err := ns.do(&wire.Request{Op: wire.OpMembershipDump})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// Merge unions an uploaded ShBE membership envelope (as exported by
// [Namespace.MembershipEnvelope] on a replica of the same Spec + seed)
// into the namespace's live filter, returning the source filter's
// element count. Mismatched geometry or seed is a conflict
// (IsConflict), as is a windowed namespace.
func (ns *Namespace) Merge(envelope []byte) (uint64, error) {
	resp, err := ns.do(&wire.Request{Op: wire.OpMembershipMerge, Blob: envelope})
	if err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// MultiplicityEnvelope exports the namespace's multiplicity filter as
// a raw ShBE envelope — the counting-state analogue of
// [Namespace.MembershipEnvelope], and the payload edge agents in count
// mode flush upstream (GET /v2/namespaces/{ns}/multiplicity/envelope).
func (ns *Namespace) MultiplicityEnvelope() ([]byte, error) {
	resp, err := ns.do(&wire.Request{Op: wire.OpMultiplicityDump})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// MergeMultiplicity unions an uploaded ShBE multiplicity envelope (as
// exported by [Namespace.MultiplicityEnvelope] on a replica or edge
// agent of the same Spec + seed) into the namespace's live counting
// filter by counter-wise saturating add: merged counts report at least
// the larger of the two sides' multiplicities, never an underestimate.
// Returns the source filter's element count. Mismatched geometry or
// seed is a conflict (IsConflict), as is a windowed namespace.
func (ns *Namespace) MergeMultiplicity(envelope []byte) (uint64, error) {
	resp, err := ns.do(&wire.Request{Op: wire.OpMultiplicityMerge, Blob: envelope})
	if err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// Freeze compacts the namespace's membership filter into a read-only
// ShBZ frozen container (POST /v2/namespaces/{ns}/freeze) and returns
// the container bytes — open them locally with shbf.OpenFrozen for
// zero-copy queries, or persist them for a stack file. From the first
// freeze on the namespace is read-only: every write answers a conflict
// (IsConflict) until the namespace is deleted and recreated. Repeating
// the freeze is idempotent and returns the same bytes.
func (ns *Namespace) Freeze() ([]byte, error) {
	resp, err := ns.do(&wire.Request{Op: wire.OpFreeze})
	if err != nil {
		return nil, err
	}
	return resp.Blob, nil
}

// do stamps the namespace onto a request and runs it.
func (ns *Namespace) do(req *wire.Request) (*wire.Response, error) {
	req.Namespace = ns.name
	return ns.c.do(req)
}

// errBox is the sticky first-error store behind the interface-shaped
// (error-less) handle methods.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) record(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// --- Set ------------------------------------------------------------------

// Set is the remote membership handle; it satisfies shbf.Set against
// the namespace's sharded ShBF_M.
type Set struct {
	ns  *Namespace
	err errBox
}

var _ shbf.Set = (*Set)(nil)

// Set returns the namespace's membership handle.
func (ns *Namespace) Set() *Set { return &Set{ns: ns} }

// AddAll inserts a batch of keys.
func (s *Set) AddAll(keys [][]byte) error {
	_, err := s.ns.do(&wire.Request{Op: wire.OpMembershipAdd, KeyWidth: wire.KeyWidth(keys), Keys: keys})
	return err
}

// ContainsAll answers membership for a batch, appending to dst (the
// library's dst convention). On a transport failure it answers false
// for every key and records the error ([Set.Err]); use [Set.Check]
// for an explicit error.
func (s *Set) ContainsAll(dst []bool, keys [][]byte) []bool {
	res, err := s.Check(keys)
	if err != nil {
		s.err.record(err)
		res = make([]bool, len(keys))
	}
	return append(dst, res...)
}

// Check is ContainsAll with an error return.
func (s *Set) Check(keys [][]byte) ([]bool, error) {
	resp, err := s.ns.do(&wire.Request{Op: wire.OpMembershipContains, KeyWidth: wire.KeyWidth(keys), Keys: keys})
	if err != nil {
		return nil, err
	}
	if len(resp.Bools) != len(keys) {
		return nil, fmt.Errorf("client: %d answers for %d keys", len(resp.Bools), len(keys))
	}
	return resp.Bools, nil
}

// Add inserts one key, recording any error ([Set.Err]).
func (s *Set) Add(e []byte) { s.err.record(s.AddAll([][]byte{e})) }

// Contains answers one key (false on transport failure, recorded in
// [Set.Err]).
func (s *Set) Contains(e []byte) bool {
	res, err := s.Check([][]byte{e})
	if err != nil {
		s.err.record(err)
		return false
	}
	return res[0]
}

// Err returns the first error recorded by the error-less interface
// methods (nil if none).
func (s *Set) Err() error { return s.err.get() }

// --- Counter --------------------------------------------------------------

// Counter is the remote multiplicity handle; it satisfies shbf.Counter
// and shbf.Updatable against the namespace's sharded CShBF_X.
type Counter struct {
	ns  *Namespace
	err errBox
}

var (
	_ shbf.Counter   = (*Counter)(nil)
	_ shbf.Updatable = (*Counter)(nil)
	_ shbf.Adder     = (*Counter)(nil)
)

// Counter returns the namespace's multiplicity handle.
func (ns *Namespace) Counter() *Counter { return &Counter{ns: ns} }

// Insert increments one key's multiplicity.
func (c *Counter) Insert(e []byte) error { return c.InsertCount(e, 1) }

// Delete decrements one key's multiplicity; deleting an absent key is
// a conflict (IsConflict).
func (c *Counter) Delete(e []byte) error {
	keys := [][]byte{e}
	_, err := c.ns.do(&wire.Request{Op: wire.OpMultiplicityRemove, KeyWidth: wire.KeyWidth(keys), Keys: keys})
	return err
}

// InsertCount increments one key's multiplicity by n; exceeding the
// namespace's maximum count c is a conflict with the applied prefix in
// *Error.Applied.
func (c *Counter) InsertCount(e []byte, n int) error {
	if n < 0 {
		return fmt.Errorf("client: negative count %d", n)
	}
	keys := [][]byte{e}
	_, err := c.ns.do(&wire.Request{Op: wire.OpMultiplicityAdd, KeyWidth: wire.KeyWidth(keys),
		Keys: keys, Counts: []int{n}})
	return err
}

// AddAll increments each key once (the shbf.Adder shape).
func (c *Counter) AddAll(keys [][]byte) error {
	_, err := c.ns.do(&wire.Request{Op: wire.OpMultiplicityAdd, KeyWidth: wire.KeyWidth(keys), Keys: keys})
	return err
}

// CountAll answers multiplicities for a batch, appending to dst. On
// transport failure it answers 0 per key and records the error
// ([Counter.Err]); use [Counter.Counts] for an explicit error.
func (c *Counter) CountAll(dst []int, keys [][]byte) []int {
	res, err := c.Counts(keys)
	if err != nil {
		c.err.record(err)
		res = make([]int, len(keys))
	}
	return append(dst, res...)
}

// Counts is CountAll with an error return.
func (c *Counter) Counts(keys [][]byte) ([]int, error) {
	resp, err := c.ns.do(&wire.Request{Op: wire.OpMultiplicityCount, KeyWidth: wire.KeyWidth(keys), Keys: keys})
	if err != nil {
		return nil, err
	}
	if len(resp.Counts) != len(keys) {
		return nil, fmt.Errorf("client: %d answers for %d keys", len(resp.Counts), len(keys))
	}
	return resp.Counts, nil
}

// Count answers one key's multiplicity (0 on transport failure,
// recorded in [Counter.Err]).
func (c *Counter) Count(e []byte) int {
	res, err := c.Counts([][]byte{e})
	if err != nil {
		c.err.record(err)
		return 0
	}
	return res[0]
}

// Err returns the first error recorded by the error-less interface
// methods (nil if none).
func (c *Counter) Err() error { return c.err.get() }

// --- Associator -----------------------------------------------------------

// Associator is the remote two-set association handle; it satisfies
// shbf.Associator against the namespace's sharded CShBF_A.
type Associator struct {
	ns  *Namespace
	err errBox
}

var _ shbf.Associator = (*Associator)(nil)

// Associator returns the namespace's association handle.
func (ns *Namespace) Associator() *Associator { return &Associator{ns: ns} }

// update applies one association op to a batch.
func (a *Associator) update(op byte, set int, keys [][]byte) error {
	if set != 1 && set != 2 {
		return fmt.Errorf("client: set must be 1 or 2, got %d", set)
	}
	_, err := a.ns.do(&wire.Request{Op: op, Set: byte(set), KeyWidth: wire.KeyWidth(keys), Keys: keys})
	return err
}

// InsertAll adds a batch of keys to set 1 or 2.
func (a *Associator) InsertAll(set int, keys [][]byte) error {
	return a.update(wire.OpAssociationAdd, set, keys)
}

// DeleteAll removes a batch of keys from set 1 or 2; removing an
// absent key is a conflict with the applied prefix in *Error.Applied.
func (a *Associator) DeleteAll(set int, keys [][]byte) error {
	return a.update(wire.OpAssociationRemove, set, keys)
}

// InsertS1 adds one key to S1 (scalar forms mirror the library's
// CountingAssociation surface).
func (a *Associator) InsertS1(e []byte) error { return a.InsertAll(1, [][]byte{e}) }

// InsertS2 adds one key to S2.
func (a *Associator) InsertS2(e []byte) error { return a.InsertAll(2, [][]byte{e}) }

// DeleteS1 removes one key from S1.
func (a *Associator) DeleteS1(e []byte) error { return a.DeleteAll(1, [][]byte{e}) }

// DeleteS2 removes one key from S2.
func (a *Associator) DeleteS2(e []byte) error { return a.DeleteAll(2, [][]byte{e}) }

// QueryAll classifies a batch, appending to dst. On transport failure
// it answers the empty region per key and records the error
// ([Associator.Err]); use [Associator.Classify] for an explicit error.
func (a *Associator) QueryAll(dst []shbf.Region, keys [][]byte) []shbf.Region {
	res, err := a.Classify(keys)
	if err != nil {
		a.err.record(err)
		res = make([]shbf.Region, len(keys))
	}
	return append(dst, res...)
}

// Classify is QueryAll with an error return.
func (a *Associator) Classify(keys [][]byte) ([]shbf.Region, error) {
	resp, err := a.ns.do(&wire.Request{Op: wire.OpAssociationQuery, KeyWidth: wire.KeyWidth(keys), Keys: keys})
	if err != nil {
		return nil, err
	}
	if len(resp.Regions) != len(keys) {
		return nil, fmt.Errorf("client: %d answers for %d keys", len(resp.Regions), len(keys))
	}
	out := make([]shbf.Region, len(resp.Regions))
	for i, r := range resp.Regions {
		out[i] = shbf.Region(r)
	}
	return out, nil
}

// Query classifies one key (the empty region on transport failure,
// recorded in [Associator.Err]).
func (a *Associator) Query(e []byte) shbf.Region {
	res, err := a.Classify([][]byte{e})
	if err != nil {
		a.err.record(err)
		return shbf.RegionNone
	}
	return res[0]
}

// Err returns the first error recorded by the error-less interface
// methods (nil if none).
func (a *Associator) Err() error { return a.err.get() }

// --- Window ---------------------------------------------------------------

// Window is the remote rotation handle of a windowed namespace; it
// satisfies shbf.Windowed. Rotate retires the namespace's oldest
// generation on the daemon. RotateIfDue applies the namespace's
// configured tick locally (fetched once from the daemon), so a client
// process can own the rotation cadence the way a local serving loop
// would — deploy exactly one such clock owner per namespace, or use
// shbfd's -tick loop and never call it.
type Window struct {
	ns *Namespace

	mu        sync.Mutex
	tick      time.Duration
	tickKnown bool
	last      time.Time
	err       error
}

var _ shbf.Windowed = (*Window)(nil)

// Window returns the namespace's rotation handle.
func (ns *Namespace) Window() *Window { return &Window{ns: ns} }

// Rotate retires the namespace's oldest generation now.
func (w *Window) Rotate() error {
	_, _, err := w.ns.Rotate()
	return err
}

// Info fetches the window's rotation snapshot (ring length, epoch,
// tick, per-generation occupancy). A non-windowed namespace is an
// error.
func (w *Window) Info() (shbf.WindowInfo, error) {
	st, err := w.ns.Stats()
	if err != nil {
		return shbf.WindowInfo{}, err
	}
	ws := st.Membership.Window
	if ws == nil {
		return shbf.WindowInfo{}, errors.New("client: namespace is not windowed")
	}
	in := shbf.WindowInfo{
		Generations:   ws.Generations,
		Epoch:         ws.Epoch,
		Tick:          time.Duration(ws.TickSeconds * float64(time.Second)),
		PerGeneration: make([]shbf.WindowGenInfo, len(ws.PerGeneration)),
	}
	for i, g := range ws.PerGeneration {
		in.PerGeneration[i] = shbf.WindowGenInfo{N: g.N, FillRatio: g.FillRatio}
	}
	return in, nil
}

// Window implements shbf.Windowed; it is [Window.Info] with the zero
// snapshot on failure (recorded in [Window.Err]).
func (w *Window) Window() shbf.WindowInfo {
	in, err := w.Info()
	if err != nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
	}
	return in
}

// RotateIfDue rotates once when the namespace's configured tick has
// elapsed since the last due rotation (the first call arms the clock,
// fetching the tick from the daemon), reporting whether it rotated.
// It mirrors the library's RotateIfDue contract: pass time.Now() from
// a serving loop, synthetic times from tests.
func (w *Window) RotateIfDue(now time.Time) (bool, error) {
	w.mu.Lock()
	if !w.tickKnown {
		w.mu.Unlock()
		in, err := w.Info()
		if err != nil {
			return false, err
		}
		w.mu.Lock()
		if !w.tickKnown {
			w.tick, w.tickKnown = in.Tick, true
		}
	}
	due := false
	if w.tick > 0 {
		switch {
		case w.last.IsZero():
			w.last = now
		case now.Sub(w.last) >= w.tick:
			w.last = now
			due = true
		}
	}
	w.mu.Unlock()
	if !due {
		return false, nil
	}
	if err := w.Rotate(); err != nil {
		return false, err
	}
	return true, nil
}

// Err returns the first error recorded by [Window.Window] (nil if
// none).
func (w *Window) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
