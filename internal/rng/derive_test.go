package rng

import "testing"

// TestSplitSeedMatchesSplit pins the allocation-free seed derivation:
// SplitSeed(key) must equal Split(key).Uint64() for every (state, key)
// pair, including streams that have advanced and the degenerate keys
// the shortcut's dropped SplitMix64 steps could get wrong.
func TestSplitSeedMatchesSplit(t *testing.T) {
	keys := []uint64{0, 1, 42, ^uint64(0), 0xd1b54a32d192ed03, 1 << 63}
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef, ^uint64(0)} {
		r := New(seed)
		for step := 0; step < 5; step++ {
			for _, key := range keys {
				if got, want := r.SplitSeed(key), r.Split(key).Uint64(); got != want {
					t.Fatalf("seed=%#x step=%d key=%#x: SplitSeed=%#x, Split().Uint64()=%#x",
						seed, step, key, got, want)
				}
			}
			r.Uint64() // advance the parent; the equivalence must hold at every state
		}
	}
	r := New(3)
	if n := testing.AllocsPerRun(100, func() { _ = r.SplitSeed(9) }); n != 0 {
		t.Fatalf("SplitSeed allocates %.1f times per call, want 0", n)
	}
}

// TestUint64AtMatchesNew pins the other derivation shortcut:
// Uint64At(seed) must equal New(seed).Uint64() for arbitrary seeds,
// including 0 (New's all-zero guard touches s[0] only, so the shortcut
// may skip it — this test is the proof that stays true).
func TestUint64AtMatchesNew(t *testing.T) {
	seeds := []uint64{0, 1, 2, 42, 0x9e3779b97f4a7c15, ^uint64(0), 1 << 32, 0xcafebabe}
	for _, seed := range seeds {
		if got, want := Uint64At(seed), New(seed).Uint64(); got != want {
			t.Fatalf("seed=%#x: Uint64At=%#x, New().Uint64()=%#x", seed, got, want)
		}
	}
	s := New(11)
	for i := 0; i < 1000; i++ {
		seed := s.Uint64()
		if got, want := Uint64At(seed), New(seed).Uint64(); got != want {
			t.Fatalf("random seed %#x: Uint64At=%#x, want %#x", seed, got, want)
		}
	}
}

// TestSplitIntoInPlace pins SplitInto's aliasing claim: splitting a
// stream into itself gives the child Split would return, and writing a
// child into existing storage allocates nothing.
func TestSplitIntoInPlace(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		for _, key := range []uint64{0, 5, ^uint64(0)} {
			r := New(seed)
			want := r.Split(key)
			r.SplitInto(key, r)
			for i := 0; i < 8; i++ {
				if got, w := r.Uint64(), want.Uint64(); got != w {
					t.Fatalf("seed=%#x key=%#x step %d: in-place SplitInto %#x, Split %#x", seed, key, i, got, w)
				}
			}
		}
	}
	var r, dst Stream
	r.Reseed(3)
	if n := testing.AllocsPerRun(100, func() { r.SplitInto(9, &dst) }); n != 0 {
		t.Fatalf("SplitInto allocates %.1f times per call, want 0", n)
	}
}
