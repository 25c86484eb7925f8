package core

import "slices"

// radixMin is the answer length below which sortIDs leaves the ordering to
// slices.Sort: a radix pass pays a fixed cost for its 256 buckets, and
// BenchmarkSortIDs puts the break-even between 128 and 160 ids (medians of
// three runs on a 2-CPU Xeon: at 128 ids slices.Sort 2.2 µs, radix 2.4;
// at 160, 2.9 and 2.2; at 256, 4.9 and 3.5).
const radixMin = 128

// sortIDs puts ids in ascending order and returns the sorted list, which is
// ids itself or scratch, grown to len(ids) when it is shorter; the caller
// lends scratch (nil is fine) and reads the answer before reusing either.
func sortIDs(ids, scratch []uint64) []uint64 {
	if len(ids) < radixMin {
		slices.Sort(ids)
		return ids
	}
	return radixSort(ids, scratch)
}

// radixSort is sortIDs' long-list path: an LSD radix sort over the id
// bytes that vary, moving the ids between ids and scratch. A byte position
// on which every id agrees cannot reorder anything and is skipped, so an
// answer drawn from a database of fewer than 65 536 objects sorts in at
// most two passes.
func radixSort(ids, scratch []uint64) []uint64 {
	var varies uint64
	for _, id := range ids {
		varies |= id ^ ids[0]
	}
	src, dst := ids, slices.Grow(scratch[:0], len(ids))[:len(ids)]
	for shift := 0; shift < 64; shift += 8 {
		if byte(varies>>shift) == 0 {
			continue
		}
		var start [256]int
		for _, id := range src {
			start[byte(id>>shift)]++
		}
		sum := 0
		for b, c := range start {
			start[b], sum = sum, sum+c
		}
		for _, id := range src {
			b := byte(id >> shift)
			dst[start[b]] = id
			start[b]++
		}
		src, dst = dst, src
	}
	return src
}
