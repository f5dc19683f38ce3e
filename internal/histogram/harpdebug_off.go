//go:build !harpdebug

package histogram

const debugTagEnabled = false
