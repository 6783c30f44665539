package wal

import (
	"encoding/json"
	"fmt"
	"sort"

	"nestedtx/internal/adt"
)

// The encoding/json checkpoint codec the log had before encodeCheckpoint
// and scanCheckpoint, kept verbatim as the reference
// FuzzCheckpointEncodeMatchesEncodingJSON compares the live one with.

type jsonCheckpoint struct {
	NextLSN uint64         `json:"next_lsn"`
	Objects []jsonObjState `json:"objects"`
}

type jsonObjState struct {
	Name string          `json:"x"`
	St   json.RawMessage `json:"st"`
}

func marshalCheckpoint(nextLSN uint64, states map[string]adt.State) ([]byte, error) {
	ck := jsonCheckpoint{NextLSN: nextLSN, Objects: make([]jsonObjState, 0, len(states))}
	names := make([]string, 0, len(states))
	for x := range states {
		names = append(names, x)
	}
	sort.Strings(names)
	for _, x := range names {
		raw, err := adt.EncodeState(states[x])
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint %q: %w", x, err)
		}
		ck.Objects = append(ck.Objects, jsonObjState{Name: x, St: raw})
	}
	return json.Marshal(ck)
}

func unmarshalCheckpointRef(payload []byte) (uint64, map[string]adt.State, error) {
	var ck jsonCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return 0, nil, fmt.Errorf("wal: decode checkpoint: %w", err)
	}
	states := make(map[string]adt.State, len(ck.Objects))
	for _, o := range ck.Objects {
		st, err := adt.DecodeState(o.St)
		if err != nil {
			return 0, nil, fmt.Errorf("wal: checkpoint %q: %w", o.Name, err)
		}
		states[o.Name] = st
	}
	return ck.NextLSN, states, nil
}
