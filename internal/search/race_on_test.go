//go:build race

package search

const raceEnabled = true
