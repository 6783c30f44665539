package client

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestHandlesAreSlotsOfOneChunk: a Client cuts its handles from chunks of
// handleChunk, one after another, each keeping the txid its reply
// carried, short (inside the handle) or long (a string of its own). A
// failed BEGIN cuts nothing, and no later handle overwrites an earlier
// one's name.
func TestHandlesAreSlotsOfOneChunk(t *testing.T) {
	const refused = 7
	n := 2*handleChunk + 3
	var script, want []string
	for seq := 1; seq <= n+1; seq++ {
		if seq == refused {
			script = append(script, frame(fmt.Sprintf(`{"seq":%d,"ok":false,"code":"bad_request","err":"refused"}`, seq)))
			continue
		}
		id := fmt.Sprintf("T0.%d", seq)
		if seq%3 == 0 {
			id = fmt.Sprintf("T0.%d.%s", seq, strings.Repeat("1", 24)) // past the handle's 24 bytes
		}
		script = append(script, frame(fmt.Sprintf(`{"seq":%d,"ok":true,"tx":%d,"txid":%q}`, seq, seq, id)))
		want = append(want, id)
	}
	c, err := Dial(scriptedServer(t, script), WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hs []*Tx
	for seq := 1; seq <= n+1; seq++ {
		tx, err := c.Begin()
		if (err != nil) != (seq == refused) {
			t.Fatalf("BEGIN %d: %v", seq, err)
		}
		if err == nil {
			hs = append(hs, tx)
		}
	}
	size := unsafe.Sizeof(Tx{})
	for i, tx := range hs {
		if tx.ID() != want[i] {
			t.Errorf("handle %d named %q, want %q", i, tx.ID(), want[i])
		}
		if i == 0 {
			continue
		}
		next := uintptr(unsafe.Pointer(hs[i-1])) + size
		if follows := uintptr(unsafe.Pointer(tx)) == next; follows != (i%handleChunk != 0) {
			t.Errorf("handle %d follows handle %d in memory: %v, want %v (chunks of %d)", i, i-1, follows, !follows, handleChunk)
		}
	}
}
