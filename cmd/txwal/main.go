// Command txwal inspects a nestedtx write-ahead log directory without
// modifying it: it scans checkpoints and segments exactly the way crash
// recovery would (same CRC checks, same torn-tail detection) but leaves
// every byte in place, so it is safe to point at a live server's
// -data-dir.
//
// Usage:
//
//	txwal info   [-json] dir                     summarise segments, checkpoint, torn tail
//	txwal dump   [-json] dir                     print every recovered record
//	txwal verify [-json] dir                     machine-check the recovered history
//	txwal tail   [-json] [-follow] [-from-lsn N] dir
//	                                             stream records in LSN order
//
// verify reconstructs the recovered history as a formal schedule and
// certifies it with nestedtx.Recovery.Verify, the certifier boot and
// promotion run — well-formedness, replay on the M(X) automata with value
// verification, and serial correctness per Theorem 34 — answering "would this directory recover, and would the
// result be correct?" before a restart bets on it.
//
// tail reads records the way a replication follower does: it starts at
// -from-lsn (default 0), stops cleanly at a frame still being written,
// and with -follow keeps polling a live directory for new records as the
// server appends them. If the wanted position has been checkpointed away
// (the low-water mark moved past it), tail notes the gap on stderr and
// resumes from the newest checkpoint — the same "records are gone,
// restart from a snapshot" adjudication a follower makes.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nestedtx"
	"nestedtx/internal/adt"
	"nestedtx/internal/wal"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: txwal {info|dump|verify} [-json] <dir>\n")
	fmt.Fprintf(os.Stderr, "       txwal tail [-json] [-follow] [-from-lsn N] <dir>\n")
}

func main() {
	// Hand-rolled so flags may come before or after the subcommand.
	var jsonOut, follow bool
	var fromLSN uint64
	var pos []string
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-json" || a == "--json":
			jsonOut = true
		case a == "-follow" || a == "--follow":
			follow = true
		case a == "-from-lsn" || a == "--from-lsn":
			i++
			if i >= len(args) {
				usage()
				os.Exit(2)
			}
			n, err := strconv.ParseUint(args[i], 10, 64)
			if err != nil {
				fatal("txwal: bad -from-lsn %q: %v", args[i], err)
			}
			fromLSN = n
		case strings.HasPrefix(a, "-from-lsn=") || strings.HasPrefix(a, "--from-lsn="):
			_, v, _ := strings.Cut(a, "=")
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				fatal("txwal: bad -from-lsn %q: %v", v, err)
			}
			fromLSN = n
		case a == "-h" || a == "-help" || a == "--help":
			usage()
			os.Exit(0)
		default:
			pos = append(pos, a)
		}
	}
	if len(pos) != 2 {
		usage()
		os.Exit(2)
	}
	cmd, dir := pos[0], pos[1]

	if cmd == "tail" {
		tail(dir, fromLSN, follow, jsonOut)
		return
	}
	rec, err := wal.Inspect(dir, nil)
	if err != nil {
		fatal("txwal: %v", err)
	}
	switch cmd {
	case "info":
		info(rec, jsonOut)
	case "dump":
		dump(rec, jsonOut)
	case "verify":
		verify(rec, jsonOut)
	default:
		usage()
		os.Exit(2)
	}
}

// tail streams records from the directory in LSN order, exactly as a
// replication follower reads them. Without -follow it drains what is
// there and exits; with -follow it polls for more.
func tail(dir string, from uint64, follow, jsonOut bool) {
	tl := wal.NewTailer(dir, nil, from)
	for {
		recs, err := tl.Next(512, 1<<20)
		if errors.Is(err, wal.ErrTruncated) {
			// The wanted records were checkpointed away; resume from the
			// newest checkpoint, the way a follower restarts from a
			// leader snapshot.
			rec, ierr := wal.Inspect(dir, nil)
			if ierr != nil {
				fatal("txwal: re-resolve after truncation: %v", ierr)
			}
			if rec.CheckpointLSN <= tl.NextLSN() {
				fatal("txwal: lsn %d is below the log's low-water mark", tl.NextLSN())
			}
			fmt.Fprintf(os.Stderr, "txwal: lsn %d..%d checkpointed away; resuming at checkpoint lsn %d\n",
				tl.NextLSN(), rec.CheckpointLSN-1, rec.CheckpointLSN)
			tl = wal.NewTailer(dir, nil, rec.CheckpointLSN)
			continue
		}
		if err != nil {
			fatal("txwal: tail: %v", err)
		}
		for _, r := range recs {
			printRecord(r, jsonOut)
		}
		if len(recs) == 0 {
			if !follow {
				return
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

type segmentJSON struct {
	Name     string `json:"name"`
	Size     int64  `json:"size"`
	FirstLSN uint64 `json:"first_lsn"`
	LastLSN  uint64 `json:"last_lsn"`
	Records  int    `json:"records"`
	Torn     bool   `json:"torn,omitempty"`
}

type infoJSON struct {
	CheckpointLSN uint64        `json:"checkpoint_lsn"`
	NextLSN       uint64        `json:"next_lsn"`
	Records       int           `json:"records"`
	Objects       []string      `json:"objects"`
	TornBytes     int64         `json:"torn_bytes,omitempty"`
	Dropped       []string      `json:"dropped,omitempty"`
	Segments      []segmentJSON `json:"segments"`
}

func buildInfo(rec *wal.Recovery) infoJSON {
	out := infoJSON{
		CheckpointLSN: rec.CheckpointLSN,
		NextLSN:       rec.NextLSN,
		Records:       len(rec.Records),
		TornBytes:     rec.TornBytes,
		Dropped:       rec.Dropped,
	}
	for name := range rec.States() {
		out.Objects = append(out.Objects, name)
	}
	sortStrings(out.Objects)
	for _, s := range rec.Segments() {
		out.Segments = append(out.Segments, segmentJSON{
			Name: s.Name, Size: s.Size, FirstLSN: s.FirstLSN,
			LastLSN: s.LastLSN, Records: s.Records, Torn: s.Torn,
		})
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func info(rec *wal.Recovery, jsonOut bool) {
	out := buildInfo(rec)
	if jsonOut {
		emit(out)
		return
	}
	fmt.Printf("checkpoint lsn %d, next lsn %d, %d records, %d objects\n",
		out.CheckpointLSN, out.NextLSN, out.Records, len(out.Objects))
	for _, s := range out.Segments {
		line := fmt.Sprintf("  %s  %7d bytes  ", s.Name, s.Size)
		if s.Records == 0 {
			line += "empty"
		} else {
			line += fmt.Sprintf("lsn %d..%d  %d records", s.FirstLSN, s.LastLSN, s.Records)
		}
		if s.Torn {
			line += "  TORN TAIL"
		}
		fmt.Println(line)
	}
	if out.TornBytes > 0 {
		fmt.Printf("torn tail: %d bytes would be truncated on recovery\n", out.TornBytes)
	}
	for _, d := range out.Dropped {
		fmt.Printf("unreadable (would be set aside): %s\n", d)
	}
}

type recordJSON struct {
	LSN     uint64          `json:"lsn"`
	Kind    string          `json:"kind"`
	TID     string          `json:"tid,omitempty"`
	Object  string          `json:"obj,omitempty"`
	Effects int             `json:"effects,omitempty"`
	Detail  json.RawMessage `json:"detail,omitempty"`
}

func dump(rec *wal.Recovery, jsonOut bool) {
	for _, r := range rec.Records {
		printRecord(r, jsonOut)
	}
}

func printRecord(r wal.Record, jsonOut bool) {
	switch {
	case r.Commit != nil:
		if jsonOut {
			detail, _ := json.Marshal(r.Commit)
			emit(recordJSON{LSN: r.LSN, Kind: "commit", TID: r.Commit.TID,
				Effects: len(r.Commit.Effects), Detail: detail})
			return
		}
		fmt.Printf("%8d  COMMIT   %s  (%d effects)\n", r.LSN, r.Commit.TID, len(r.Commit.Effects))
		for _, e := range r.Commit.Effects {
			op, _ := adt.EncodeOp(e.Op)
			fmt.Printf("          %-12s %s\n", e.Obj, op)
		}
	case r.Register != nil:
		if jsonOut {
			detail, _ := adt.EncodeState(r.Register.Initial)
			emit(recordJSON{LSN: r.LSN, Kind: "register", Object: r.Register.Name, Detail: detail})
			return
		}
		st, _ := adt.EncodeState(r.Register.Initial)
		fmt.Printf("%8d  REGISTER %s = %s\n", r.LSN, r.Register.Name, st)
	}
}

func verify(rec *wal.Recovery, jsonOut bool) {
	err := (&nestedtx.Recovery{Recovery: rec}).Verify()
	if jsonOut {
		out := struct {
			OK      bool   `json:"ok"`
			Err     string `json:"err,omitempty"`
			Records int    `json:"records"`
		}{OK: err == nil, Records: len(rec.Records)}
		if err != nil {
			out.Err = err.Error()
		}
		emit(out)
		if err != nil {
			os.Exit(1)
		}
		return
	}
	if err != nil {
		fatal("txwal: verify FAILED: %v", err)
	}
	fmt.Printf("ok: %d records past checkpoint %d replay cleanly and the schedule is serially correct (Theorem 34)\n",
		len(rec.Records), rec.CheckpointLSN)
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal("txwal: %v", err)
	}
}
