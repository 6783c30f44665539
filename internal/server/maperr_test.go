package server

import (
	"errors"
	"fmt"
	"testing"

	"nestedtx"
	"nestedtx/internal/wire"
)

// TestMapOpErr: an access error is classified from the error alone, so it
// maps to a typed response whatever the server is doing — also in the
// promotion window, when there is neither a manager nor a follower to
// ask. An unregistered object is the client's mistake, anything
// unrecognised the server's.
func TestMapOpErr(t *testing.T) {
	ss := &session{srv: &Server{}}
	for _, c := range []struct {
		err  error
		code string
	}{
		{errors.New("some op failure"), wire.CodeInternal},
		{fmt.Errorf("access T0.1.0 on ghost: %w", nestedtx.ErrUnknownObject), wire.CodeBadRequest},
		{nestedtx.ErrAborted, wire.CodeAborted},
		{fmt.Errorf("access T0.1.0 on x: %w", nestedtx.ErrDeadlock), wire.CodeDeadlock},
	} {
		resp := ss.mapErr(c.err)
		if resp.OK || resp.Code != c.code {
			t.Errorf("mapErr(%v) = %+v, want code %q", c.err, resp, c.code)
		}
	}
}
