package quant

import (
	"path/filepath"
	"sync"
	"testing"

	"ehdl/internal/artifact"
	"ehdl/internal/fixed"
)

// TestContentDigestStableAcrossRoundTrip: the digest must address
// content, not identity — a save/load round trip yields the same
// digest, so memo entries survive model reloads (e.g. an artifact-LRU
// eviction mid-fleet).
func TestContentDigestStableAcrossRoundTrip(t *testing.T) {
	m := smallModel(t, 3)
	d := m.ContentDigest()
	if d == ([32]byte{}) {
		t.Fatal("zero digest")
	}
	if m.ContentDigest() != d {
		t.Fatal("digest not stable on repeat calls")
	}
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := artifact.WriteFile(path, artifact.KindModel, m); err != nil {
		t.Fatal(err)
	}
	got, err := loadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentDigest() != d {
		t.Fatal("round-tripped model digests differently")
	}
}

// TestContentDigestSensitive: different weights, different digest.
func TestContentDigestSensitive(t *testing.T) {
	a := smallModel(t, 3)
	b := smallModel(t, 4)
	if a.ContentDigest() == b.ContentDigest() {
		t.Fatal("models with different weights share a digest")
	}
	c := smallModel(t, 3)
	if a.ContentDigest() != c.ContentDigest() {
		t.Fatal("identically built models digest differently")
	}
}

// TestContentDigestConcurrent: first call races from many goroutines
// (the fleet's workers all probe the memo at once); all must agree.
func TestContentDigestConcurrent(t *testing.T) {
	m := smallModel(t, 5)
	want := smallModel(t, 5).ContentDigest()
	var wg sync.WaitGroup
	got := make([][32]byte, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.ContentDigest()
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("goroutine %d: digest mismatch", i)
		}
	}
}

func TestHashQ15(t *testing.T) {
	a := HashQ15([]fixed.Q15{1, 2, 3})
	if a != HashQ15([]fixed.Q15{1, 2, 3}) {
		t.Fatal("equal inputs hash differently")
	}
	for _, other := range [][]fixed.Q15{
		{1, 2, 4},
		{1, 2},
		{1, 2, 3, 0},
		{3, 2, 1},
		{-1, 2, 3},
		nil,
	} {
		if HashQ15(other) == a {
			t.Fatalf("distinct input %v collides", other)
		}
	}
	// Byte order matters: Q15 values must not alias across element
	// boundaries ([256] vs [1,0] little-endian confusion).
	if HashQ15([]fixed.Q15{256, 0}) == HashQ15([]fixed.Q15{0, 256}) {
		t.Fatal("element boundary aliasing")
	}
}
