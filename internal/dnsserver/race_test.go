//go:build race

package dnsserver

// raceEnabled reports a -race build, under which sync.Pool drops
// buffers at random, so allocation counts are not meaningful.
const raceEnabled = true
