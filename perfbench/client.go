package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
)

// client is one closed-loop wire connection: a statement line out, one
// JSON response line back.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// reply is the part of a response line the benchmark checks.
type reply struct {
	OK    bool   `json:"ok"`
	Rows  int    `json:"rows"`
	Code  string `json:"code"`
	Error string `json:"error"`
	bytes int    // response line length, newline included
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one statement and waits for its response. An error means the
// connection is unusable; a statement the server refused comes back as
// a reply with OK false.
func (c *client) do(text string) (reply, error) {
	c.w.WriteString(text)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return reply{}, err
	}
	line, err := c.r.ReadSlice('\n')
	for err == bufio.ErrBufferFull {
		// Longer than the read buffer: collect the rest of the line.
		buf := append([]byte(nil), line...)
		line, err = c.r.ReadSlice('\n')
		line = append(buf, line...)
	}
	if err != nil {
		return reply{}, err
	}
	r := reply{bytes: len(line)}
	if err := json.Unmarshal(line, &r); err != nil {
		return reply{}, fmt.Errorf("bad response line %q: %w", line, err)
	}
	return r, nil
}

// mustOK is do for set-up statements, which must all succeed.
func (c *client) mustOK(text string) error {
	r, err := c.do(text)
	if err != nil {
		return err
	}
	if !r.OK {
		return fmt.Errorf("statement %.80q failed: %s (%s)", text, r.Error, r.Code)
	}
	return nil
}
