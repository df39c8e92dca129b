//go:build race

package pipeline

// raceEnabled reports a -race build (allocation gates skip under it).
const raceEnabled = true
