// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every randomized component in this repository.
//
// The generator is a hand-rolled xoshiro256** seeded through SplitMix64.
// We deliberately do not use math/rand: its default source changed across
// Go releases, and reproducibility of experiments from a single published
// seed — on any platform, with any Go version — is a hard requirement for
// this project. Streams can be split hierarchically (one stream per
// process per experiment trial) so that concurrent components never share
// generator state.
package rng

import "math/bits"

// Stream is a deterministic pseudo-random number stream. It is not safe
// for concurrent use; split one child stream per goroutine instead.
type Stream struct {
	s [4]uint64
}

// New returns a stream seeded from seed via SplitMix64, following the
// initialization recommended by the xoshiro authors.
func New(seed uint64) *Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		sm, st.s[i] = splitMix64(sm)
	}
	// A xoshiro state of all zeros is invalid (the generator would emit
	// only zeros); SplitMix64 cannot produce it from any seed, but guard
	// anyway so the invariant is local.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return &st
}

// Reseed reinitializes the stream in place from seed, exactly as New
// would, without allocating. Arena-backed snapshots (sim.CloneInto /
// Execution.Reset) use it to recycle stream storage across rollouts.
func (r *Stream) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// CopyFrom overwrites the stream's state with src's, making the two
// streams produce identical future outputs. It is the allocation-free
// counterpart of Clone, used by the arena snapshot path.
func (r *Stream) CopyFrom(src *Stream) {
	r.s = src.s
}

// Split derives an independent child stream identified by key. Children
// with distinct keys, and the parent, produce statistically independent
// sequences; splitting does not advance the parent.
func (r *Stream) Split(key uint64) *Stream {
	var st Stream
	r.SplitInto(key, &st)
	return &st
}

// SplitInto writes Split(key) into dst without allocating, so a caller
// deriving many children can keep them in one slab (core.NewProcs keeps
// one []Stream per process vector). dst may be r itself: each parent
// word is read before the child word at the same index is written.
func (r *Stream) SplitInto(key uint64, dst *Stream) {
	// Mix the parent state with the key through SplitMix64 so that child
	// streams are decorrelated from the parent and from each other.
	h := key ^ 0xd1b54a32d192ed03
	for i := range dst.s {
		var v uint64
		h, v = splitMix64(h ^ r.s[i])
		dst.s[i] = v
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 0x9e3779b97f4a7c15
	}
}

// SplitSeed returns Split(key).Uint64() without allocating the child
// stream. The xoshiro output function reads only s[1], so deriving the
// child's first word needs just the first two SplitMix64 steps of the
// child-state construction; the all-zero guard in Split touches s[0]
// only and cannot change this value. Hot reseeding paths
// (sim.Execution.ReseedProcesses) use it to derive one per-process seed
// per rollout allocation-free. TestSplitSeedMatchesSplit pins the
// equivalence.
func (r *Stream) SplitSeed(key uint64) uint64 {
	h := key ^ 0xd1b54a32d192ed03
	h, _ = splitMix64(h ^ r.s[0])
	_, s1 := splitMix64(h ^ r.s[1])
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint64At returns New(seed).Uint64() without allocating the stream:
// the xoshiro output function reads only s[1], so two SplitMix64 steps
// of the New initialization suffice (the all-zero guard touches s[0]
// only). Hot paths that derive one value per seed — the shared-coin
// protocol option, per-rollout reseeding in internal/valency — use it
// in place of a throwaway stream. TestUint64AtMatchesNew pins the
// equivalence.
func Uint64At(seed uint64) uint64 {
	sm, _ := splitMix64(seed)
	_, s1 := splitMix64(sm)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// nearly-divisionless method.
func (r *Stream) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns a fair random boolean.
func (r *Stream) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bit returns a fair random bit, 0 or 1.
func (r *Stream) Bit() int {
	return int(r.Uint64() & 1)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p uniformly at random in place (Fisher–Yates).
func (r *Stream) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Clone returns an exact copy of the stream's current state. The clone
// and the original produce identical sequences from this point on; this
// is what execution snapshots use so that a look-ahead rollout and the
// real execution see the same coin flips.
func (r *Stream) Clone() *Stream {
	c := *r
	return &c
}

// splitMix64 advances a SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}
