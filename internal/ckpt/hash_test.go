package ckpt

// Tests for the identity-hash seam (hash.go): XXH64 against the reference
// vectors, streaming equivalence under arbitrary write splits, the
// persisted-id registry, and the identity-hash ladder benchmark.

import (
	"hash"
	"math/rand"
	"testing"
	"time"
)

// sumWith hashes b in one shot with the identity hash a manifest entry
// names — how tests recompute a persisted identity through the seam.
func sumWith(t testing.TB, id int, b []byte) uint64 {
	t.Helper()
	newHash, err := hashFactory(id)
	if err != nil {
		t.Fatal(err)
	}
	h := newHash()
	h.Write(b)
	return h.Sum64()
}

// TestXXH64ReferenceVectors: the in-repo XXH64 matches the reference
// implementation's published digests (seed 0), covering the short-input
// path, the 4- and 8-byte tail rounds, and the 32-byte stripe loop.
func TestXXH64ReferenceVectors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"abc", 0x44bc2cf5ad770999},
		{"hello, world", 0xb33a384e6d1b1242},
		{"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$", 0x1032d841e824f998},
	} {
		if got := sumWith(t, HashXXH64, []byte(tc.in)); got != tc.want {
			t.Errorf("xxh64(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
	// FNV-1a stays hash/fnv's 64a, so FNV-era manifests keep verifying.
	if got := sumWith(t, HashFNV1a, []byte("abc")); got != 0xe71fa2190541574b {
		t.Errorf("fnv1a(\"abc\") = %016x", got)
	}
}

// TestIdentityHashStreaming: a 100 KB buffer written in random-sized pieces
// (including empty and sub-stripe writes) hashes exactly like a one-shot
// write, for every identity hash, and Reset returns the digest to its
// initial state.
func TestIdentityHashStreaming(t *testing.T) {
	buf := noisyBytes(100_000, 3)
	rng := rand.New(rand.NewSource(1))
	for _, id := range []int{HashFNV1a, HashXXH64} {
		want := sumWith(t, id, buf)
		newHash, _ := hashFactory(id)
		h := newHash()
		for trial := 0; trial < 20; trial++ {
			h.Reset()
			for rest := buf; len(rest) > 0; {
				n := rng.Intn(97)
				if trial%2 == 1 {
					n = rng.Intn(9000)
				}
				if n > len(rest) {
					n = len(rest)
				}
				h.Write(rest[:n])
				rest = rest[n:]
			}
			if got := h.Sum64(); got != want {
				t.Fatalf("%s trial %d: piecewise %016x, one-shot %016x", HashName(id), trial, got, want)
			}
		}
	}
}

// TestHashIDRegistry: every persisted id resolves and names itself; an
// unknown id resolves to an error, never to a hash.
func TestHashIDRegistry(t *testing.T) {
	for id, name := range map[int]string{HashFNV1a: "fnv1a", HashXXH64: "xxh64"} {
		if _, err := hashFactory(id); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := HashName(id); got != name {
			t.Fatalf("HashName(%d) = %q, want %q", id, got, name)
		}
	}
	if _, err := hashFactory(2); err == nil {
		t.Fatal("unknown hash id resolved")
	}
	if newWriteHash == nil || sumWith(t, writeHashID, nil) != newWriteHash().Sum64() {
		t.Fatal("newWriteHash is not writeHashID's digest")
	}
}

// BenchmarkIdentityHash is ladder layer L2: the identity hash every logical
// byte passes through two or three times per commit. The sub-benchmarks
// report MB/s and allocs for each persisted hash over 1 MiB. Gates (both
// same-process, so shared runners cannot flake them): the streaming digest
// must allocate nothing per op, and XXH64 must run at least 4x FNV-1a.
func BenchmarkIdentityHash(b *testing.B) {
	const size = 1 << 20
	buf := noisyBytes(size, 11)
	fnvNew, _ := hashFactory(HashFNV1a)
	xxNew, _ := hashFactory(HashXXH64)
	digests := []struct {
		name    string
		newHash func() hash.Hash64
	}{{"fnv1a", fnvNew}, {"xxh64", xxNew}}

	// best returns the fastest of several timed 1 MiB passes.
	best := func(h hash.Hash64) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			h.Reset()
			h.Write(buf)
			h.Sum64()
			if d := time.Since(t0); d < min {
				min = d
			}
		}
		return min
	}
	fnvT, xxT := best(fnvNew()), best(xxNew())
	if ratio := float64(fnvT) / float64(xxT); ratio < 4 {
		b.Fatalf("xxh64 runs only %.1fx fnv1a over 1 MiB (%v vs %v), want >= 4x", ratio, xxT, fnvT)
	}
	for _, d := range digests {
		h := d.newHash()
		if a := testing.AllocsPerRun(5, func() { h.Reset(); h.Write(buf); h.Sum64() }); a != 0 {
			b.Fatalf("%s streaming digest allocates %.0f times per 1 MiB", d.name, a)
		}
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Reset()
				h.Write(buf)
				h.Sum64()
			}
		})
	}
}
