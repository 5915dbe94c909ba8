//go:build race

package solvecache

func init() { raceEnabled = true }
