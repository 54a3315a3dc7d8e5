package server

import (
	"errors"
	"net"

	"shbf/internal/ingest"
	"shbf/internal/wire"
)

// The UDP ingest tier (shbfd -udp-addr). A listener accepts ShBU
// datagrams from edge agents (internal/ingest): packed add-batches
// feed the namespace's membership filter, reassembled ShBE envelopes
// union-merge into whichever filter of the trio their self-described
// kind names. Every datagram passes the same write gates as the TCP
// transports — frozen tenants refuse, per-tenant rate quotas charge
// one token per key — but UDP has no reply, so refusals surface only
// in the shbf_udp_* metric families (receiver-side sequence
// accounting also measures loss, reordering and duplication there).

// udpHandler adapts the namespace registry to ingest.Handler.
type udpHandler struct{ s *Server }

// HandleBatch applies a packed key batch as a membership add, through
// the op core like any other transport's request.
func (h udpHandler) HandleBatch(name string, keys [][]byte) ingest.DropReason {
	var (
		resp wire.Response
		sc   dispatchScratch
	)
	h.s.dispatch(&wire.Request{Op: wire.OpMembershipAdd, Namespace: name, Keys: keys}, &resp, &sc)
	switch resp.Status {
	case wire.StatusOK:
		return ingest.DropNone
	case wire.StatusNotFound:
		return ingest.DropUnknownNamespace
	case wire.StatusConflict:
		return ingest.DropFrozen
	case wire.StatusOverloaded:
		return ingest.DropRate
	}
	return ingest.DropMerge
}

// HandleEnvelope union-merges a reassembled ShBE envelope, charging
// the rate quota for the envelope's element count after decode but
// before any mutation. Like every write it holds the namespace's write
// gate from the frozen check to the merge.
func (h udpHandler) HandleEnvelope(name string, envelope []byte) ingest.DropReason {
	ns, err := h.s.lookup(name)
	if err != nil {
		return ingest.DropUnknownNamespace
	}
	if ns.beginWrite() != nil {
		return ingest.DropFrozen
	}
	defer ns.endWrite()
	src, err := decodeMergeEnvelope(envelope)
	if err != nil {
		return ingest.DropDecode
	}
	_, err = ns.mergeFilter(src, func(nKeys int) error { return ns.admit(nKeys, true) })
	switch {
	case err == nil:
		return ingest.DropNone
	case errors.Is(err, errOverloaded):
		return ingest.DropRate
	case errors.Is(err, errMergeBadEnvelope):
		// Decoded, but not a kind any filter of the trio can merge.
		return ingest.DropDecode
	default:
		// Incompatible geometry/seed, or a windowed destination.
		return ingest.DropMerge
	}
}

// ServeShBU reads ShBU datagrams from pc until it is closed, applying
// each through the UDP receiver. Run it like ServeShBP:
//
//	pc, _ := net.ListenPacket("udp", addr)
//	go s.ServeShBU(pc)
//
// A closed listener returns nil; any other read error is returned.
func (s *Server) ServeShBU(pc net.PacketConn) error {
	buf := make([]byte, ingest.MaxDatagram)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		// Process uses the payload synchronously (reassembly copies),
		// so the buffer is safe to reuse for the next datagram.
		s.udp.Process(buf[:n])
	}
}

// UDPStats snapshots the UDP ingest accounting (also exported as the
// shbf_udp_* metric families).
func (s *Server) UDPStats() ingest.Stats { return s.udp.Stats() }
