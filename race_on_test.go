//go:build race

package nestedtx

// Under the race detector sync.Pool keeps only some of what is put back;
// 4 covers the pooled objects a transaction reuses (see raceSlack).
func init() { raceSlack = 4 }
