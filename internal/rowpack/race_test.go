//go:build race

package rowpack

func init() { raceEnabled = true }
