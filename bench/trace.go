package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"
)

// spanName is one of the fixed span names of a traced run.
type spanName uint8

const (
	spTx       spanName = iota // one top-level transaction, first attempt start → acknowledged
	spAttempt                  // one execution of the body
	spBackoff                  // body return of a failed attempt → next body entry: abort + backoff + re-begin
	spBegin                    // RunRetry call → first body entry
	spDoRead                   // one read access
	spDoWrite                  // one write access
	spSub                      // one subtransaction: begin + body + commit/abort
	spCommit                   // last body return → RunRetry return
	spScan                     // one read-only snapshot transaction, begin → close
	spScanRead                 // one snapshot read
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"tx", "attempt", "backoff", "begin", "do.read", "do.write", "sub", "commit", "scan", "scan.read",
}

// span is one recorded interval. parent indexes the same recorder's
// slice; -1 marks a root (a tx span).
type span struct {
	tx         uint32
	parent     int32
	name       spanName
	start, end int64 // ns since the recorder's base
}

// recorder is one worker's span buffer: preallocated, appended to
// without locks, written out when the run ends.
type recorder struct {
	base   time.Time // start of the phase being recorded
	spans  []span
	tx     uint32 // current transaction number
	txSpan int32  // its tx span
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// room reports whether n more spans fit without growing the buffer.
func (r *recorder) room(n int) bool { return len(r.spans)+n <= cap(r.spans) }

func (r *recorder) add(name spanName, parent int32, start, end int64) {
	r.spans = append(r.spans, span{tx: r.tx, parent: parent, name: name, start: start, end: end})
}

// open starts a span whose end is not known yet and returns its index.
func (r *recorder) open(name spanName, parent int32, start int64) int32 {
	r.spans = append(r.spans, span{tx: r.tx, parent: parent, name: name, start: start})
	return int32(len(r.spans) - 1)
}

func (r *recorder) close(id int32, end int64) { r.spans[id].end = end }

// beginTx opens the tx span of the next traced transaction.
func (r *recorder) beginTx(start int64) {
	r.tx++
	r.txSpan = r.open(spTx, -1, start)
}

// traceStats is what the per-layer metrics need from the spans.
type traceStats struct {
	dur      [numSpanNames][]float64 // span durations by name, µs
	self     [numSpanNames][]float64 // duration minus direct children, µs
	txs      int
	coverage float64 // Σ children of tx spans / Σ tx spans
	minCover float64 // the worst single tx
}

// analyse derives per-name durations, self times and the tx coverage
// from the recorders of a run.
func analyse(recs []*recorder) *traceStats {
	st := &traceStats{minCover: 1}
	var txTotal, txCovered int64
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			d := s.end - s.start
			st.dur[s.name] = append(st.dur[s.name], float64(d)/1e3)
			st.self[s.name] = append(st.self[s.name], float64(d-child[i])/1e3)
			if s.name == spTx {
				st.txs++
				txTotal += d
				txCovered += child[i]
				if d > 0 {
					st.minCover = min(st.minCover, float64(child[i])/float64(d))
				}
			}
		}
	}
	if txTotal > 0 {
		st.coverage = float64(txCovered) / float64(txTotal)
	}
	return st
}

// writeTrace writes every span as one JSON object per line:
// {tx, span, parent, name, start_ns, end_ns}. Span and tx ids are unique
// across workers; parent is 0 for a tx span.
func writeTrace(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for wi, r := range recs {
		// Worker wi's ids live in [wi·2^32 + 1, (wi+1)·2^32).
		offset := int64(wi)<<32 + 1
		for i, s := range r.spans {
			parent := int64(0)
			if s.parent >= 0 {
				parent = offset + int64(s.parent)
			}
			line = append(line[:0], `{"tx":`...)
			line = strconv.AppendInt(line, int64(wi)<<32+int64(s.tx), 10)
			line = append(line, `,"span":`...)
			line = strconv.AppendInt(line, offset+int64(i), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, parent, 10)
			line = append(line, `,"name":"`...)
			line = append(line, spanNames[s.name]...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
