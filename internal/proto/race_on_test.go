//go:build race

package proto

const raceEnabled = true
