package scratch

import "testing"

// TestFloatsKeepsItsBackingArray is Floats' oracle: the first call makes
// a zeroed array of the asked length; later calls up to its capacity,
// shorter or longer than the last, return the same array with the last
// use's contents and allocate nothing; a longer request replaces it with
// a zeroed array, which later calls keep.
func TestFloatsKeepsItsBackingArray(t *testing.T) {
	var buf []float64
	first := Floats(&buf, 8)
	if len(first) != 8 || len(buf) != 8 {
		t.Fatalf("first call: len %d, field len %d, want 8", len(first), len(buf))
	}
	for i, v := range first {
		if v != 0 {
			t.Fatalf("first call: [%d] = %v, want 0", i, v)
		}
		first[i] = float64(i + 1)
	}
	for _, n := range []int{3, 8, 0, 5} {
		got := Floats(&buf, n)
		if len(got) != n || cap(got) != cap(first) || &got[:1][0] != &first[0] {
			t.Fatalf("Floats(%d): len %d cap %d, not the first call's array", n, len(got), cap(got))
		}
		for i, v := range got {
			if v != float64(i+1) {
				t.Fatalf("Floats(%d): [%d] = %v, want the last use's %v", n, i, v, float64(i+1))
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Floats(&buf, 6) }); allocs != 0 {
		t.Errorf("a call within capacity allocates %v times", allocs)
	}
	grown := Floats(&buf, 16)
	if len(grown) != 16 || &grown[0] == &first[0] {
		t.Fatalf("Floats(16) past capacity 8: len %d, same array %v", len(grown), &grown[0] == &first[0])
	}
	for i, v := range grown {
		if v != 0 {
			t.Fatalf("Floats(16): [%d] = %v, want a zeroed array", i, v)
		}
	}
	if again := Floats(&buf, 12); &again[0] != &grown[0] {
		t.Error("the call after a replacement does not keep the new array")
	}
}
