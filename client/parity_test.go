package client_test

import (
	"errors"
	"testing"

	"shbf/client"
	"shbf/internal/wire"
)

// TestErrorParityAcrossTransports: every op failure answers the same
// status, message and applied count over ShBP and over HTTP, because
// both transports run one op core and read one status table.
func TestErrorParityAcrossTransports(t *testing.T) {
	d := startDaemon(t, testConfig())
	cs := d.clients(t)
	admin := cs["shbp"]
	if err := admin.CreateNamespace(client.NamespaceConfig{Name: "cold"}); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Namespace("cold").Freeze(); err != nil {
		t.Fatal(err)
	}
	gens := 3
	if err := admin.CreateNamespace(client.NamespaceConfig{Name: "ring", WindowGenerations: &gens}); err != nil {
		t.Fatal(err)
	}
	env, err := admin.Namespace("").MembershipEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	key := func(s string) [][]byte { return [][]byte{[]byte(s)} }

	for _, tc := range []struct {
		name   string
		status byte
		// req builds the request for one transport; keys that must be
		// fresh on each carry its name.
		req func(transport string) *wire.Request
	}{
		{"unknown namespace", wire.StatusNotFound, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpMembershipContains, Namespace: "nope", Keys: key("a")}
		}},
		{"write to a frozen tenant", wire.StatusConflict, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpMembershipAdd, Namespace: "cold", Keys: key("a")}
		}},
		{"association set 3", wire.StatusBadRequest, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpAssociationAdd, Set: 3, Keys: key("a")}
		}},
		{"remove an absent association key", wire.StatusConflict, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpAssociationRemove, Set: 1, Keys: key("absent")}
		}},
		{"multiplicity overflow midway", wire.StatusConflict, func(tr string) *wire.Request {
			return &wire.Request{Op: wire.OpMultiplicityAdd,
				Keys: [][]byte{[]byte(tr + "-a"), []byte(tr + "-b")}, Counts: []int{3, 20}}
		}},
		{"rotate a classic tenant", wire.StatusConflict, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpRotate}
		}},
		{"merge a non-envelope body", wire.StatusBadRequest, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpMembershipMerge, Blob: []byte("not an envelope")}
		}},
		{"merge into a windowed tenant", wire.StatusConflict, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpMembershipMerge, Namespace: "ring", Blob: env}
		}},
		{"create an existing namespace", wire.StatusConflict, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpNamespaceCreate, Blob: []byte(`{"name":"cold"}`)}
		}},
		{"delete default", wire.StatusConflict, func(string) *wire.Request {
			return &wire.Request{Op: wire.OpNamespaceDelete, Namespace: "default"}
		}},
	} {
		got := map[string]client.Error{}
		for name, c := range cs {
			_, err := client.Do(c, tc.req(name))
			var e *client.Error
			if !errors.As(err, &e) {
				t.Fatalf("%s over %s: got %v, want a daemon error", tc.name, name, err)
			}
			got[name] = *e
		}
		if got["shbp"] != got["http"] {
			t.Errorf("%s: transports differ:\n shbp: %+v\n http: %+v", tc.name, got["shbp"], got["http"])
		}
		if got["shbp"].Status != tc.status {
			t.Errorf("%s: status %s, want %s", tc.name, wire.StatusName(got["shbp"].Status), wire.StatusName(tc.status))
		}
	}
}
