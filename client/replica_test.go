package client

import (
	"errors"
	"fmt"
	"testing"

	"nestedtx/internal/wire"
)

// TestProbeRoleErrorCodes pins down which METRICS answers probeRole may
// read as "this endpoint can take writes". Only an OK answer without a
// replication block means "standalone writable server"; every error code
// says nothing about the role and must fail the probe — a server
// answering bad_request or too_large is not a leader, and treating it as
// one would point the failover pool at a node that cannot serve
// transactions. That includes a server that still answers not_configured.
func TestProbeRoleErrorCodes(t *testing.T) {
	errResp := func(code string) string {
		return frame(fmt.Sprintf(`{"seq":1,"ok":false,"code":%q,"err":"scripted"}`, code))
	}
	cases := []struct {
		name     string
		resp     string
		wantRole string
		wantErr  bool
	}{
		{"not_configured is a probe failure", errResp("not_configured"), "", true},
		{"bad_request is a probe failure", errResp(wire.CodeBadRequest), "", true},
		{"too_large is a probe failure", errResp(wire.CodeTooLarge), "", true},
		{"internal is a probe failure", errResp(wire.CodeInternal), "", true},
		{"unknown_tx is a probe failure", errResp(wire.CodeUnknownTx), "", true},
		{"shutdown is a probe failure", errResp(wire.CodeShutdown), "", true},
		{"deadlock is a probe failure", errResp(wire.CodeDeadlock), "", true},
		{"aborted is a probe failure", errResp(wire.CodeAborted), "", true},
		{"timeout is a probe failure", errResp(wire.CodeTimeout), "", true},
		{"busy is a probe failure", errResp(wire.CodeBusy), "", true},
		{"read_only is a probe failure", errResp(wire.CodeReadOnly), "", true},
		{"OK without payload is a probe failure", frame(`{"seq":1,"ok":true}`), "", true},
		{
			"no repl_status is standalone leader",
			frame(`{"seq":1,"ok":true,"metrics":{"requests":1,"commits":0,"lock_acquires":0,"tx_commits":0}}`),
			"leader", false,
		},
		{
			"leader payload",
			frame(`{"seq":1,"ok":true,"metrics":{"repl_status":{"role":"leader","next_lsn":1,"durable_lsn":1,"checkpoint_lsn":0}}}`),
			"leader", false,
		},
		{
			"connected follower",
			frame(`{"seq":1,"ok":true,"metrics":{"repl_status":{"role":"follower","next_lsn":1,"durable_lsn":1,"checkpoint_lsn":0,"connected":true}}}`),
			"follower", false,
		},
		{
			"disconnected follower stays follower",
			frame(`{"seq":1,"ok":true,"metrics":{"repl_status":{"role":"follower","next_lsn":1,"durable_lsn":1,"checkpoint_lsn":0}}}`),
			"follower", false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedServer(t, []string{tc.resp})
			role, err := probeRole(addr, nil)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("probeRole = %q, nil; want error", role)
				}
				if role == "leader" {
					t.Fatalf("probeRole returned leader alongside error %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("probeRole: %v", err)
			}
			if role != tc.wantRole {
				t.Fatalf("probeRole = %q, want %q", role, tc.wantRole)
			}
		})
	}
}

// TestProbeRoleServerError double-checks the error carries the original
// code, so Failover's aggregated error names what the endpoint said.
func TestProbeRoleServerError(t *testing.T) {
	addr := scriptedServer(t, []string{frame(`{"seq":1,"ok":false,"code":"internal","err":"boom"}`)})
	_, err := probeRole(addr, nil)
	var e *Error
	if !errors.As(err, &e) || e.Code != wire.CodeInternal {
		t.Fatalf("probeRole error = %v, want *Error with code internal", err)
	}
}
