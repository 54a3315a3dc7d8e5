package window

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"shbf/internal/core"
)

// The ShBW wire format serializes a window as its ring: 4-byte magic
// "ShBW", a version byte, the window's core.Kind as one byte, then the
// ring metadata as uvarints (generation count G, head index, epoch,
// tick in nanoseconds) and G length-prefixed generation blobs in ring
// order — each blob the generation filter's own MarshalBinary output,
// which embeds its full geometry and seed. Head and epoch travel in
// the container, so a restored window resumes rotation exactly where
// the dump left off. The root package's self-describing envelope
// (shbf.Dump/Load) frames these bytes under the window's Kind tag, the
// "ShBW wrapper" of the serving layer's snapshots.

const (
	windowMagic   = "ShBW"
	windowVersion = 1
)

// MarshalBinary implements encoding.BinaryMarshaler: the ShBW ring
// container over the generations' own serializations.
func (w *ring[G, F]) MarshalBinary() ([]byte, error) {
	r := w.rot
	buf := append([]byte(windowMagic), windowVersion, byte(w.kind))
	buf = binary.AppendUvarint(buf, uint64(len(r.gens)))
	buf = binary.AppendUvarint(buf, uint64(r.head))
	buf = binary.AppendUvarint(buf, r.epoch)
	buf = binary.AppendUvarint(buf, uint64(r.clock.Tick))
	for i, g := range r.gens {
		blob, err := g.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("window: marshaling generation %d: %w", i, err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf, nil
}

// decode parses a MarshalBinary container of the given window kind,
// reconstructing each generation into a fresh zero value, and replaces
// w's state (ring, head, epoch, tick) with the decoded window, whose
// retired generations recycle by the constructor's rule over build.
// The typed windows' UnmarshalBinary is this with their kind and build.
func (w *ring[G, F]) decode(data []byte, kind core.Kind, build func(core.Spec) (F, error)) error {
	if len(data) < len(windowMagic)+2 {
		return fmt.Errorf("window: truncated container header")
	}
	if string(data[:len(windowMagic)]) != windowMagic {
		return fmt.Errorf("window: bad container magic %q", data[:len(windowMagic)])
	}
	if v := data[len(windowMagic)]; v != windowVersion {
		return fmt.Errorf("window: unsupported container version %d", v)
	}
	if got := core.Kind(data[len(windowMagic)+1]); got != kind {
		return fmt.Errorf("window: container holds %s, want %s", got, kind)
	}
	buf := data[len(windowMagic)+2:]
	var g, head, epoch, tick uint64
	for i, dst := range []*uint64{&g, &head, &epoch, &tick} {
		v, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return fmt.Errorf("window: truncated ring parameter %d", i)
		}
		*dst = v
		buf = buf[sz:]
	}
	if g < 2 || g > maxGenerations {
		return fmt.Errorf("window: implausible generation count %d", g)
	}
	if head >= g {
		return fmt.Errorf("window: head index %d outside ring of %d", head, g)
	}
	if tick > math.MaxInt64 {
		return fmt.Errorf("window: implausible tick %d", tick)
	}
	gens := make([]F, g)
	for i := range gens {
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return fmt.Errorf("window: truncated length of generation %d", i)
		}
		buf = buf[sz:]
		if uint64(len(buf)) < n {
			return fmt.Errorf("window: generation %d blob truncated", i)
		}
		f := F(new(G))
		if err := f.UnmarshalBinary(buf[:n]); err != nil {
			return fmt.Errorf("window: decoding generation %d: %w", i, err)
		}
		gens[i] = f
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return fmt.Errorf("window: %d trailing bytes", len(buf))
	}
	// Every generation must share generation 0's spec: the ring
	// invariant the query fan-out relies on (identical geometry and
	// seed ⇒ one digest probes all).
	spec0 := gens[0].Spec()
	for i, f := range gens[1:] {
		if f.Spec() != spec0 {
			return fmt.Errorf("window: generation %d spec %+v differs from generation 0 %+v",
				i+1, f.Spec(), spec0)
		}
	}
	*w = ring[G, F]{kind: kind, rot: &Rotator[F]{gens: gens, head: int(head), epoch: epoch,
		clock: TickPolicy{Tick: time.Duration(tick)}, recycle: recycler(build)}}
	return nil
}
