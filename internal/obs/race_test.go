//go:build race

package obs

// raceEnabled reports a race-detector build. The detector allocates
// for its own bookkeeping and makes sync.Pool drop Puts at random, so
// allocation counts are pinned only without it (CI runs the pins in a
// step of their own).
const raceEnabled = true
