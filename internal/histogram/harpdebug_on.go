//go:build harpdebug

package histogram

// debugTagEnabled mirrors invariant.Enabled, the harpdebug build tag (the
// invariant package cannot be imported here — it imports histogram):
// Pool.Put poisons what it takes back, and allocation-count tests are
// skipped because the invariant layer is allowed to allocate.
const debugTagEnabled = true
