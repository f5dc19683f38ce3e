// Package escbad is a harplint test fixture for the compiler-contract
// gate's escape columns: the kernel* functions form the fixture's reach
// set, and the real compiler is the oracle for which of them allocate. It
// is never imported by production code.
package escbad

// kernelMoved forces a local off the stack: its address outlives the
// frame, so the gate must record one moved-to-heap in the reach set.
func kernelMoved(n int) *int {
	v := n + 1
	return &v
}

// kernelNew heap-allocates directly: one escapes-to-heap entry.
func kernelNew(n int) *int {
	p := new(int)
	*p = n
	return p
}

// kernelClean stays entirely on the stack: its baseline entry must read
// zero escapes, zero moved.
func kernelClean(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// coldMoved escapes exactly like kernelMoved but sits outside the
// kernel reach set: the gate must not see it at all.
func coldMoved(n int) *int {
	v := n * 2
	return &v
}
