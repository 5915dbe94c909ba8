//go:build race

package encode

func init() { raceEnabled = true }
