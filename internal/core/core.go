// Package core implements the Shifting Bloom Filter (ShBF) framework of
// Yang et al., "A Shifting Bloom Filter Framework for Set Queries"
// (VLDB 2016) — the paper's primary contribution.
//
// The framework encodes, for each element e of a set, two kinds of
// information: existence information in k hash positions h_i(e) % m, and
// auxiliary information in a location offset o(e). Bits are set at
// positions h_i(e)%m + o(e); queries read a small window of consecutive
// bits per position and recover both kinds of information from where the
// 1s fall (paper Figure 1). Because the maximum offset w̄ is chosen ≤
// w−7 for machine word size w, each window costs exactly one memory
// access (Section 3.1).
//
// Three instantiations are provided, matching the paper's sections:
//
//   - Membership (ShBF_M, Section 3): the offset is pure extra
//     randomness, halving hash computations and memory accesses versus a
//     standard Bloom filter at nearly identical false-positive rate.
//     TShift generalizes it to t offsets per group (Section 3.6), and
//     CountingMembership (CShBF_M, Section 3.3) adds deletion.
//
//   - Association (ShBF_A, Section 4): the offset encodes which of two
//     sets an element belongs to (S1−S2 ↦ 0, S1∩S2 ↦ o1, S2−S1 ↦ o2),
//     answering "which set(s) is e in?" with zero false positives among
//     its seven outcome types. CountingAssociation (CShBF_A, Section
//     4.3) adds dynamic updates.
//
//   - Multiplicity (ShBF_X, Section 5): the offset encodes the
//     element's count c(e)−1 in a multi-set. CountingMultiplicity
//     (CShBF_X, Section 5.3) adds updates, in both the paper's
//     no-false-negative mode (hash-table backed, Section 5.3.2) and the
//     false-negative-prone mode it warns about (Section 5.3.1).
//     SCMSketch (Section 5.5) applies the shifting idea to the
//     count-min sketch.
//
// All types take elements as []byte (the evaluation uses 13-byte 5-tuple
// flow IDs) and are not safe for concurrent use: the paper's query loop
// is single-threaded and the structures keep per-instance scratch
// buffers to keep the hot path allocation-free.
package core

import (
	"errors"
	"fmt"

	"shbf/internal/memmodel"
)

// WordBits is the machine word size w the offset bounds are derived
// from. The paper's evaluation uses 64-bit words (Section 3.4.2).
const WordBits = memmodel.WordBits

// DefaultMaxOffset is the paper's recommended maximum offset value
// w̄ = w − 7 for 64-bit architectures, which guarantees both bits of a
// (base, base+offset) pair are read in one memory access and — per
// Section 3.4.2 — makes the ShBF_M false-positive rate essentially equal
// to a standard Bloom filter's (w̄ ≥ 20 suffices; w̄ = 57 is used).
const DefaultMaxOffset = WordBits - 7

// Errors returned by the counting variants.
var (
	// ErrNotStored is returned by deletes of elements whose encoding is
	// not present (some corresponding counter is already zero). Deleting
	// a never-inserted element is a caller bug in every scheme of the
	// paper; the counting filters detect it instead of corrupting state.
	ErrNotStored = errors.New("core: element not stored")

	// ErrCountOverflow is returned when an insert would push an
	// element's multiplicity beyond the filter's configured maximum c.
	ErrCountOverflow = errors.New("core: multiplicity exceeds configured maximum c")

	// ErrCounterSaturated is returned when an update would overflow a
	// fixed-width counter.
	ErrCounterSaturated = errors.New("core: counter saturated")
)

// config carries the options shared by all filters in this package.
type config struct {
	seed         uint64
	maxOffset    int
	counter      *memmodel.Counter
	counterWidth uint
	unsafeUpdate bool
}

func defaultConfig(kind Kind) config {
	cfg := config{
		seed:         0x5b8f_0000,
		maxOffset:    DefaultMaxOffset,
		counterWidth: 4, // "in most applications, 4 bits for a counter are enough" (§3.3)
	}
	if kind == KindSCMSketch {
		cfg.counterWidth = 32 // CM-sketch counters hold full counts (§5.5)
	}
	return cfg
}

// optID names an option for the per-kind applicability check.
type optID uint8

const (
	optSeed optID = iota
	optMaxOffset
	optAccessCounter
	optCounterWidth
	optUnsafeUpdates
)

func (id optID) String() string {
	switch id {
	case optSeed:
		return "WithSeed"
	case optMaxOffset:
		return "WithMaxOffset"
	case optAccessCounter:
		return "WithAccessCounter"
	case optCounterWidth:
		return "WithCounterWidth"
	case optUnsafeUpdates:
		return "WithUnsafeUpdates"
	}
	return "unknown option"
}

// allowed reports whether the option applies to the given kind — i.e.
// whether the kind's constructor actually consumes the config field the
// option sets. Options outside the allowlist are construction errors,
// never silent no-ops: WithUnsafeUpdates on a membership filter or
// WithCounterWidth on a plain (non-counting) kind would otherwise give
// the caller a false sense of having configured something.
func (id optID) allowed(kind Kind) bool {
	switch id {
	case optSeed, optAccessCounter:
		return true
	case optMaxOffset:
		// The multiplicity kinds derive their window from c, and the
		// SCM sketch from the counter width; w̄ is not theirs to set.
		switch kind {
		case KindMultiplicity, KindCountingMultiplicity, KindShardedMultiplicity, KindSCMSketch:
			return false
		}
		return true
	case optCounterWidth:
		switch kind {
		case KindCountingMembership, KindCountingAssociation, KindCountingMultiplicity,
			KindSCMSketch, KindShardedAssociation, KindShardedMultiplicity:
			return true
		}
		return false
	case optUnsafeUpdates:
		return kind == KindCountingMultiplicity || kind == KindShardedMultiplicity
	}
	return false
}

// Option customizes filter construction. Each option applies only to
// the kinds whose constructor consumes it; misapplied options are
// rejected with an error naming the option and the kind.
type Option struct {
	id    optID
	apply func(*config)
}

// CheckOptions validates opts against kind's allowlist without
// building a config. The sharded wrappers call it with their own kind
// before forwarding options to the per-shard constructors, so a
// misapplied option is reported against the kind the caller actually
// asked for, not the inner shard kind.
func CheckOptions(kind Kind, opts ...Option) error {
	for _, o := range opts {
		if !o.id.allowed(kind) {
			return fmt.Errorf("core: option %s does not apply to %s filters", o.id, kind)
		}
	}
	return nil
}

// buildConfig resolves opts against kind's defaults, rejecting options
// that do not apply to kind and a counter width the counter arrays
// cannot hold.
func buildConfig(kind Kind, opts []Option) (config, error) {
	cfg := defaultConfig(kind)
	if err := CheckOptions(kind, opts...); err != nil {
		return cfg, err
	}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.counterWidth < 1 || cfg.counterWidth > 64 {
		return cfg, fmt.Errorf("core: counter width %d out of range [1, 64]", cfg.counterWidth)
	}
	return cfg, nil
}

// ResolveSeed returns the hash seed the given options select — the
// package default when no WithSeed option is present. Wrappers that
// derive per-instance seeds (internal/sharded) use it to mix the
// caller's seed into their derivation.
func ResolveSeed(opts ...Option) uint64 {
	seed := defaultConfig(KindMembership).seed
	for _, o := range opts {
		if o.id == optSeed {
			var cfg config
			o.apply(&cfg)
			seed = cfg.seed
		}
	}
	return seed
}

// HasAccessCounter reports whether the given options attach an access
// counter. A memmodel.Counter is not safe for concurrent use, so
// wrappers that could write several filters built from one option list
// at once (internal/sharded's batch adds) write them one at a time when
// the options attach one.
func HasAccessCounter(opts ...Option) bool {
	var cfg config
	for _, o := range opts {
		if o.id == optAccessCounter {
			o.apply(&cfg)
		}
	}
	return cfg.counter != nil
}

// WithSeed sets the seed from which the filter derives its independent
// hash functions. Filters built with the same parameters and seed are
// identical; experiments vary the seed across trials.
func WithSeed(seed uint64) Option {
	return Option{id: optSeed, apply: func(c *config) { c.seed = seed }}
}

// WithMaxOffset overrides the maximum offset value w̄. The paper uses
// w̄ = 25 on 32-bit and w̄ = 57 on 64-bit architectures and shows w̄ ≥ 20
// already matches the Bloom-filter FPR (Figure 3). Values are clamped by
// validation in each constructor; the window read stays a single memory
// access only for w̄ ≤ w−7. Applies to the offset-windowed kinds only
// (not multiplicity, whose window is c, nor the SCM sketch).
func WithMaxOffset(wbar int) Option {
	return Option{id: optMaxOffset, apply: func(c *config) { c.maxOffset = wbar }}
}

// WithAccessCounter attaches a memory-access counter to the filter's
// bit array B, billed for B's reads and writes per the Section 3.1
// model. Used to reproduce the "# memory accesses per query" figures.
func WithAccessCounter(mc *memmodel.Counter) Option {
	return Option{id: optAccessCounter, apply: func(c *config) { c.counter = mc }}
}

// WithCounterWidth sets the bit width of the counters in counting
// variants (default 4, per Section 3.3) and the SCM sketch (default
// 32). It does not apply to kinds without counters.
func WithCounterWidth(bits uint) Option {
	return Option{id: optCounterWidth, apply: func(c *config) { c.counterWidth = bits }}
}

// WithUnsafeUpdates selects the Section 5.3.1 update mode for
// CountingMultiplicity: the current multiplicity is learned by querying
// the bit array B instead of a backing hash table. This saves the
// off-chip table at the cost of possible false negatives, exactly as the
// paper describes; the default is the no-false-negative mode of Section
// 5.3.2. It applies only to the counting multiplicity kinds.
func WithUnsafeUpdates() Option {
	return Option{id: optUnsafeUpdates, apply: func(c *config) { c.unsafeUpdate = true }}
}
