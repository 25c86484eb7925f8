//go:build !race

package client

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
