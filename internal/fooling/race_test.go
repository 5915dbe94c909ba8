//go:build race

package fooling

func init() { raceEnabled = true }
