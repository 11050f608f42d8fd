package order

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[int]string{3: "c", 1: "a", 2: "b"}
	if got, want := SortedKeys(m), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("SortedKeys = %v, want %v", got, want)
	}
	if got := SortedKeys(map[string]int{"b": 2, "a": 1}); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("SortedKeys(string map) = %v", got)
	}
	if got := SortedKeys(map[int]int{}); len(got) != 0 {
		t.Errorf("SortedKeys(empty) = %v", got)
	}
}
