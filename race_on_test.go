//go:build race

package nestedtx

// Under the race detector sync.Pool keeps only some of what is put back;
// 4 covers the pooled objects a transaction reuses (see raceSlack), and
// a quarter of the Tx slabs are dropped (see raceTxDrop).
func init() { raceSlack, raceTxDrop = 4, 0.25 }
