//go:build !race

package petscsim

const raceEnabled = false
