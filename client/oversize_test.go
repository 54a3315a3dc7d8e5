package client_test

import (
	"bufio"
	"net"
	"testing"

	"shbf/client"
	"shbf/internal/wire"
)

// TestOversizedAnswerFailsInBand: the membership envelope of a 260 Mibit
// tenant is larger than wire.MaxFrame. Both transports report the same
// conflict naming the frame limit — not EOF over ShBP, not a truncated
// envelope over HTTP — and the ShBP connection that asked keeps
// serving.
func TestOversizedAnswerFailsInBand(t *testing.T) {
	d := startDaemon(t, testConfig())
	cs := d.clients(t)
	const name = "oversize"
	if err := cs["shbp"].CreateNamespace(client.NamespaceConfig{Name: name, MembershipBits: 260 << 20}); err != nil {
		t.Fatal(err)
	}
	want := wire.OversizeMsg(wire.OpMembershipDump)
	for transport, c := range cs {
		env, err := c.Namespace(name).MembershipEnvelope()
		var e *client.Error
		if !client.IsConflict(err) || !asError(err, &e) || e.Msg != want {
			t.Fatalf("%s: oversized envelope: %d bytes, err %v; want conflict %q", transport, len(env), err, want)
		}
		if err := c.Namespace(name).Set().AddAll([][]byte{[]byte("k")}); err != nil {
			t.Fatalf("%s: call after the refusal: %v", transport, err)
		}
	}

	// On one raw connection: the refusal arrives as a frame, and the
	// next request on the same connection is answered.
	conn, err := net.Dial("tcp", d.shbp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var frame []byte
	for _, req := range []wire.Request{
		{Op: wire.OpMembershipDump, Namespace: name},
		{Op: wire.OpPing},
	} {
		out, err := wire.AppendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		if frame, err = wire.ReadFrame(br, frame); err != nil {
			t.Fatalf("%s: reading the answer: %v", wire.OpName(req.Op), err)
		}
		var resp wire.Response
		if err := wire.DecodeResponse(&resp, frame); err != nil {
			t.Fatal(err)
		}
		wantStatus := byte(wire.StatusOK)
		if req.Op == wire.OpMembershipDump {
			wantStatus = wire.StatusConflict
		}
		if resp.Status != wantStatus {
			t.Fatalf("%s: status %s (%s), want %s", wire.OpName(req.Op),
				wire.StatusName(resp.Status), resp.Msg, wire.StatusName(wantStatus))
		}
	}
}
