//go:build !race

package gs2

const raceEnabled = false
