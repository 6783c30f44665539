package wire

import (
	"bufio"
	"bytes"
	"testing"

	"nestedtx/internal/adt"
)

// FuzzReadFrame throws adversarial bytes at the framing and payload
// decoders: whatever a client sends, the server-side read path must
// return an error or a frame — never panic, and never allocate
// proportionally to a length prefix it hasn't validated.
func FuzzReadFrame(f *testing.F) {
	seeds := [][]byte{
		[]byte(""),                           // clean EOF
		[]byte("2\n{}\n"),                    // minimal valid frame
		[]byte("2\n{}"),                      // truncated: missing newline
		[]byte("2\n{"),                       // truncated payload
		[]byte("99999999\n"),                 // giant length, no body
		[]byte("999999999999999999999999\n"), // length overflows int
		[]byte("-3\n{}\n"),                   // negative length
		[]byte("nope\n{}\n"),                 // non-numeric length
		[]byte("4\n{}\nX"),                   // wrong terminator position
		[]byte("15\n{\"seq\":1,bad}\nx"),     // bad JSON of advertised size
		[]byte("44\n{\"seq\":1,\"type\":\"WRITE\",\"op\":{\"t\":\"zzz\"}}\n"), // unknown op tag
		[]byte("2\n{}\n2\n{}\n2\n{}\n"),                                       // several frames back to back
	}
	// A genuine frame as produced by the writer, so the fuzzer starts
	// from the happy path too.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	op, _ := EncodeOp(adt.CtrAdd{Delta: 1})
	_ = WriteFrame(w, &Request{Seq: 7, Type: TWrite, Tx: 1, Obj: "ctr", Op: op})
	seeds = append(seeds, buf.Bytes(),
		[]byte("+2\n{}\n"),               // a sign is not a digit
		bytes.Repeat([]byte("1"), 1<<20), // a header that never ends
	)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bound work per input
			var req Request
			if err := ReadFrame(r, &req); err != nil {
				break
			}
			// Whatever parsed as a frame must also survive payload
			// decoding without panicking.
			if len(req.Op) > 0 {
				_, _ = adt.DecodeOp(req.Op)
			}
		}
		r = bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			var resp Response
			if err := ReadFrameMax(r, &resp, MaxResponseSize); err != nil {
				break
			}
			if len(resp.Value) > 0 {
				_, _ = adt.DecodeValue(resp.Value)
			}
			if len(resp.State) > 0 {
				_, _ = adt.DecodeState(resp.State)
			}
		}
	})
}
