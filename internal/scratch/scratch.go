package scratch

// Floats reslices *buf to n values and returns it, replacing the backing
// array only when its capacity is short. The contents are whatever the
// last use left there (zeros after a replacement): a caller that
// accumulates into the vector clears it first.
func Floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
