// Package inlinebad is a harplint test fixture for the compiler-contract
// gate's inliner columns: the kernel* functions form the fixture's reach
// set, and the real compiler is the oracle for which of them the inliner
// accepts. It is never imported by production code.
package inlinebad

// kernelTiny is far under the inlining budget: can-inline yes.
func kernelTiny(a, b int) int { return a + b }

// kernelBig is self-recursive; the inliner refuses recursion outright,
// so the gate must record can-inline no.
func kernelBig(n int) int {
	if n <= 1 {
		return 1
	}
	return n * kernelBig(n-1)
}

// kernelCalls has kernelTiny inlined into its loop: inlined-calls > 0.
func kernelCalls(xs []int) int {
	s := 0
	for _, x := range xs {
		s = kernelTiny(s, x)
	}
	return s
}

// coldCalls inlines kernelTiny too, but outside the reach set: the gate
// must not count its call sites.
func coldCalls(a, b int) int { return kernelTiny(a, b) }
