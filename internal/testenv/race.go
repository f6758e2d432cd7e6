//go:build race

package testenv

// Race reports whether the race detector is built in.
const Race = true
