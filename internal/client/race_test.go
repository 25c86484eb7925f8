//go:build race

package client

// raceBuild reports a -race build. Its sync.Pool drops a share of what it
// is given on purpose, so an allocation budget that rests on a pool does
// not hold there.
const raceBuild = true
