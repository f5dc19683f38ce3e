// Package bcebad is the compiler-contract gate's bounds-check fixture:
// kernels with known residual bounds checks. Unlike the AST-rule fixtures
// there are no want markers — the compiler itself is the oracle. The test
// compiles this package with -d=ssa/check_bce, maps the diagnostics
// through the hot reach set rooted at kernel*, and checks:
//
//   - kernelScatter keeps one IsInBounds per data-dependent index (the
//     gather and the scatter) — the irreducible shape;
//   - kernelClean is the length-tied shape the histogram kernels use and
//     must stay check-free;
//   - helper is reachable from kernelScatter, so its check counts too;
//   - coldScatter is NOT reachable from any root and must be ignored.
package bcebad

// kernelScatter accumulates src into dst through an index vector: both
// idx[i]'s target and the scatter into dst are data-dependent, so the
// compiler keeps exactly two IsInBounds here (plus helper's one).
func kernelScatter(dst, src []float64, idx []int) {
	for i, j := range idx {
		dst[j] += src[i%len(src)] + helper(src, j)
	}
}

// helper is in the hot reach set via kernelScatter; its data-dependent
// load keeps one IsInBounds.
func helper(s []float64, j int) float64 {
	return s[j%cap(s)]
}

// kernelClean is the bounds-check-free shape: lengths tied by reslicing,
// loop bounded by the ranged slice.
func kernelClean(dst, src []float64) {
	if len(src) < len(dst) {
		return
	}
	s := src[:len(dst)]
	for i := range dst {
		dst[i] += s[i]
	}
}

// coldScatter has the same residual checks as kernelScatter but is not
// reachable from any kernel root: the gate must not count it.
func coldScatter(dst, src []float64, idx []int) {
	for i, j := range idx {
		dst[j] += src[i%len(src)]
	}
}

// Use keeps every function alive for the compiler without exporting them.
func Use(dst, src []float64, idx []int) {
	kernelScatter(dst, src, idx)
	kernelClean(dst, src)
	coldScatter(dst, src, idx)
}
