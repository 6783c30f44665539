//go:build race

package server_test

// Under the race detector sync.Pool keeps only some of what is put back;
// 4 covers the pooled objects a durable transaction reuses, and a quarter
// of the server's Tx slabs are dropped, as in the root package's
// race_on_test.go.
func init() { raceSlack, raceTxDrop = 4, 0.25 }
