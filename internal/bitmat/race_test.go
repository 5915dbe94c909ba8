//go:build race

package bitmat

func init() { raceEnabled = true }
