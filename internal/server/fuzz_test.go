package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro"
)

// FuzzServeLine sends arbitrary request lines — statements, TRACE and
// TENANT prefixes, oversize and binary input — to a live server. Every
// line must get exactly one well-formed JSON reply, and the server must
// keep serving new connections afterwards.
func FuzzServeLine(f *testing.F) {
	const maxLine = 256
	for _, seed := range []string{
		"SELECT * FROM t WHERE a = 1",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 3",
		"TRACE q-1 SELECT * FROM t WHERE a = 2",
		"TRACE q-2",
		"trace  TENANT acme",
		"TENANT acme",
		"TENANT nobody",
		"TENANT",
		"INSERT INTO t VALUES (4, 'y')",
		"EXIT",
		"",
		strings.Repeat("x", maxLine+1),
		"SELECT * FROM t WHERE a = '" + strings.Repeat("z", 2*maxLine) + "'",
		"\x00\xff\xfe\x80 SELECT \x1b[0m",
	} {
		f.Add(seed)
	}
	db := openDB(f, repro.Options{Tenants: []repro.Tenant{{Name: "acme", Quota: 50}}})
	ctx := context.Background()
	for _, stmt := range []string{
		"CREATE TABLE t (a INT, b VARCHAR)",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')",
		"CREATE PARTIAL INDEX ON t (a) COVERING 1 TO 1",
	} {
		if _, err := db.Exec(ctx, stmt); err != nil {
			f.Fatal(err)
		}
	}
	_, addr := startServer(f, db, Config{MaxLineBytes: maxLine})

	f.Fuzz(func(t *testing.T, line string) {
		line = strings.ReplaceAll(line, "\n", " ") // one request line
		for _, probe := range []string{line, "SELECT * FROM t WHERE a = 1"} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			fmt.Fprintf(conn, "%s\n", probe)
			reply, err := bufio.NewReader(conn).ReadBytes('\n')
			conn.Close()
			if err != nil {
				t.Fatalf("no reply to %q: %v", probe, err)
			}
			var resp response
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("reply to %q is not JSON: %q", probe, reply)
			}
			if !resp.OK && (resp.Code == "" || resp.Error == "") {
				t.Fatalf("error reply to %q lacks code or message: %q", probe, reply)
			}
			if probe != line && !resp.OK {
				t.Fatalf("server stopped serving after %q: %q", line, reply)
			}
		}
	})
}
