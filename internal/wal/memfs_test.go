package wal

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"testing"
)

// TestMemFSMatchesAByteSlice: random writes, truncations, reads,
// corruptions and renames of one MemFS file leave it, byte for byte and
// in size, what the same steps leave a plain []byte. Writes run from a
// byte to several pages, and truncations land inside, at the edge of and
// past the end of a page, so every page boundary case comes up.
func TestMemFSMatchesAByteSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := NewMemFS()
		name, other := "d/f", "d/g"
		f, err := fs.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var ref []byte
		for step := range 300 {
			switch op := rng.Intn(10); {
			case op < 5:
				p := make([]byte, 1+rng.Intn([]int{16, memPage, 3 * memPage}[rng.Intn(3)]))
				rng.Read(p)
				if n, err := f.Write(p); n != len(p) || err != nil {
					t.Fatalf("seed %d step %d: Write(%d B) = %d, %v", seed, step, len(p), n, err)
				}
				ref = append(ref, p...)
			case op < 7:
				size := int64(len(ref))
				switch rng.Intn(4) {
				case 0:
					size = int64(rng.Intn(len(ref) + 1))
				case 1:
					size = int64(rng.Intn(len(ref)/memPage+1) * memPage)
				case 2:
					size += int64(rng.Intn(100))
				}
				if err := f.Truncate(size); err != nil {
					t.Fatalf("seed %d step %d: Truncate(%d): %v", seed, step, size, err)
				}
				ref = ref[:min(size, int64(len(ref)))]
			case op < 8:
				if len(ref) == 0 {
					continue
				}
				off := int64(rng.Intn(len(ref)))
				if err := fs.Corrupt(name, off); err != nil {
					t.Fatalf("seed %d step %d: Corrupt(%d): %v", seed, step, off, err)
				}
				ref[off] ^= 0xff
			case op < 9:
				// The open handle names the file; it follows it back.
				if err := fs.Rename(name, other); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{1}); err == nil {
					t.Fatalf("seed %d step %d: a write under a renamed-away name landed", seed, step)
				}
				if err := fs.Rename(other, name); err != nil {
					t.Fatal(err)
				}
			}
			if size, err := fs.Size(name); err != nil || size != int64(len(ref)) {
				t.Fatalf("seed %d step %d: Size = %d, %v, want %d", seed, step, size, err, len(ref))
			}
			if err := fs.Corrupt(name, int64(len(ref))); err == nil {
				t.Fatalf("seed %d step %d: Corrupt past the end of %d B succeeded", seed, step, len(ref))
			}
			if step%10 == 0 {
				if got := readAllIn(t, fs, name, 1+rng.Intn(2*memPage)); !bytes.Equal(got, ref) {
					t.Fatalf("seed %d step %d: read %d B, want %d B equal to the reference", seed, step, len(got), len(ref))
				}
			}
		}
		if got := readAllIn(t, fs, name, 7); !bytes.Equal(got, ref) {
			t.Fatalf("seed %d: read %d B, want %d B equal to the reference", seed, len(got), len(ref))
		}
	}
}

// readAllIn reads name through a new handle in reads of at most n bytes.
func readAllIn(t *testing.T, fs *MemFS, name string, n int) []byte {
	t.Helper()
	f, err := fs.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	buf := make([]byte, n)
	for {
		k, err := f.Read(buf)
		out = append(out, buf[:k]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
