package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSortIDs checks sortIDs, and its radix path on its own, against
// slices.Sort on lengths 0–300 around the radix cutover, ids one to eight bytes wide (eight reaching past
// 2⁵⁶), constant high bytes above the varying ones, duplicates, and
// sorted and reversed inputs.
func FuzzSortIDs(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 255, 256, 300} {
		for width := uint8(1); width <= 8; width++ {
			f.Add(int64(n)*8+int64(width), n, width, uint8(0), uint64(0))
		}
	}
	f.Add(int64(1), uint16(300), uint8(8), uint8(1), uint64(0))
	f.Add(int64(2), uint16(300), uint8(8), uint8(2), uint64(0))
	f.Add(int64(3), uint16(200), uint8(2), uint8(3), uint64(1)<<60)
	f.Add(int64(4), uint16(150), uint8(1), uint8(2), ^uint64(0)-300)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, width, order uint8, base uint64) {
		rng := rand.New(rand.NewSource(seed))
		mask := ^uint64(0) >> (64 - 8*(1+uint(width%8)))
		ids := make([]uint64, int(n)%301)
		for i := range ids {
			ids[i] = base + rng.Uint64()&mask
			if order%4 == 3 { // few distinct values
				ids[i] = base + uint64(rng.Intn(4))<<(8*uint(width%8))
			}
		}
		switch order % 4 {
		case 1:
			slices.Sort(ids)
		case 2:
			slices.Sort(ids)
			slices.Reverse(ids)
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		// The radix path gets scratch too short to hold the ids, and stale.
		scratch := make([]uint64, len(ids)/2)
		for i := range scratch {
			scratch[i] = rng.Uint64()
		}
		if got := radixSort(slices.Clone(ids), scratch); !slices.Equal(got, want) {
			t.Fatalf("radixSort over %d ids (width %d, order %d, base %#x) disagrees with slices.Sort", len(ids), width%8+1, order%4, base)
		}
		if got := sortIDs(ids, nil); !slices.Equal(got, want) {
			t.Fatalf("sortIDs over %d ids (width %d, order %d, base %#x) disagrees with slices.Sort", len(ids), width%8+1, order%4, base)
		}
	})
}

// BenchmarkSortIDs times sortIDs' two paths on the lengths around radixMin,
// over ids drawn from a 20 000-object database in no particular order (the
// order a descent reaches leaves in): where radix starts winning is where
// radixMin belongs.
func BenchmarkSortIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 96, 128, 160, 192, 256} {
		in := make([]uint64, n)
		for i := range in {
			in[i] = uint64(rng.Intn(20000) + 1)
		}
		buf, scratch := make([]uint64, n), make([]uint64, n)
		for _, path := range []struct {
			name string
			sort func([]uint64)
		}{
			{"slices", slices.Sort[[]uint64]},
			{"radix", func(ids []uint64) { radixSort(ids, scratch) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					path.sort(buf)
				}
			})
		}
	}
}
