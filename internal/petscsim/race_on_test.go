//go:build race

package petscsim

const raceEnabled = true
