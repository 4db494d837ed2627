//go:build race

package harmony_test

const raceEnabled = true
