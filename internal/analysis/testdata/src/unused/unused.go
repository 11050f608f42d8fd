// Package unused exercises the unused analyzer: package-level
// declarations that no non-test file of the package uses.
package unused

import "fmt"

// shape is an interface the package uses: total calls through it.
type shape interface{ area() float64 }

// solid is an interface nothing uses.
type solid interface{ volume() float64 } // want `type solid is used by no non-test file`

type square struct{ side float64 }

// area satisfies shape, so the call in total reaches it unnamed.
func (s square) area() float64 { return s.side * s.side }

// volume satisfies only solid, which nothing uses.
func (s square) volume() float64 { return 0 } // want `method volume is used by no non-test file`

// String is reached by fmt.
func (s square) String() string { return fmt.Sprint(s.side) }

func (s square) perimeter() float64 { return 4 * s.side } // want `method perimeter is used by no non-test file`

func total(shapes []shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.area()
	}
	return sum
}

// larger is generic: init uses an instantiation.
func larger[T int | float64](a, b T) T { return max(a, b) }

type box[T any] struct{ v T }

// get is used through box[int], an instantiation of its receiver type.
func (b box[T]) get() T { return b.v }

const sides = 4

func init() {
	fmt.Println(total([]shape{square{2}}), square{1}, larger(1, sides), box[int]{3}.get())
}

func Exported() {} // want `func Exported is used by no non-test file`

var counter int // want `var counter is used by no non-test file`

const spare = 1 // want `const spare is used by no non-test file`

// onlyTests is called from unused_test.go alone, which does not count.
func onlyTests() int { return 1 } // want `func onlyTests is used by no non-test file`

//lint:allow unused the fixture's reviewed exception
func allowed() {}
