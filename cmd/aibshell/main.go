// Command aibshell is an interactive shell over the database. It speaks
// a small SQL-ish language (type HELP at the prompt) and is the
// quickest way to watch the Adaptive Index Buffer work: create a table,
// add a partial index, query an uncovered value twice, and see the
// second query's pages-skipped count jump.
//
//	$ go run ./cmd/aibshell
//	aib> CREATE TABLE t (k INT, pad VARCHAR)
//	aib> INSERT INTO t VALUES (1, 'x'), (900, 'y')
//	aib> CREATE PARTIAL INDEX ON t (k) COVERING 1 TO 100
//	aib> SELECT * FROM t WHERE k = 900
//	aib> SHOW BUFFERS
//
// Statements run through the same repro.DB.Exec front door as
// cmd/aibserver, so everything the shell can do, the network protocol
// can too. With -demo the shell preloads a populated flights table so
// there is something to query immediately; with -tenant it runs as a
// tenant-scoped session.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/catalog"
)

func main() {
	demo := flag.Bool("demo", false, "preload a populated flights table")
	data := flag.String("data", "", "directory for persistent storage (reopened if a catalog exists)")
	listen := flag.String("listen", "", "serve /metrics, /timeline and /debug/pprof on this address (e.g. localhost:9090); also enables span recording and timeline sampling")
	tenant := flag.String("tenant", "", "run as this tenant (declared with an unlimited quota)")
	flag.Parse()

	opts := repro.Options{IMax: 2000, PartitionPages: 500, DataDir: *data}
	if *tenant != "" {
		// Declared up front, so a reopen binds the tenant's tables to it.
		opts.Tenants = []repro.Tenant{{Name: *tenant}}
	}
	open, verb := repro.Open, "open"
	if _, err := os.Stat(filepath.Join(*data, catalog.FileName)); *data != "" && err == nil {
		// A failed reopen is fatal: starting fresh would overwrite the
		// catalog.
		open, verb = repro.OpenExisting, "reopen"
	}
	db, err := open(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aibshell: %s: %v\n", verb, err)
		os.Exit(1)
	}
	if verb == "reopen" {
		fmt.Println("reopened database from", *data)
	}
	defer db.Close()
	if *listen != "" {
		srv, addr, err := db.ServeMetrics(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aibshell: listen:", err)
			os.Exit(1)
		}
		defer srv.Close()
		db.Observe(true)
		fmt.Printf("observability: http://%s/metrics, /timeline and /debug/pprof/ (SHOW TIMELINE works too)\n", addr)
	}
	if *demo {
		if err := preload(db); err != nil {
			fmt.Fprintln(os.Stderr, "aibshell: preload:", err)
			os.Exit(1)
		}
		fmt.Println("demo table loaded: flights(airport VARCHAR, delay INT, details VARCHAR)")
		fmt.Println("partial index on delay covering 0 TO 29; try:")
		fmt.Println("  SELECT * FROM flights WHERE delay = 90")
	}

	exec := db.Exec
	if *tenant != "" {
		sess, err := db.Session(*tenant)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aibshell: tenant:", err)
			os.Exit(1)
		}
		exec = sess.Exec
		fmt.Printf("session bound to tenant %q\n", *tenant)
	}

	repl(os.Stdin, os.Stdout, exec)
}

// repl reads statements line by line, printing results and errors,
// until EOF or an EXIT command. Every statement goes through the public
// Exec front door.
func repl(in io.Reader, out io.Writer, exec func(context.Context, string) (repro.ExecResult, error)) {
	ctx := context.Background()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	fmt.Fprint(out, "aib> ")
	for sc.Scan() {
		r, err := exec(ctx, sc.Text())
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		} else if r.Output != "" {
			fmt.Fprintln(out, r.Output)
		}
		if r.Quit {
			return
		}
		fmt.Fprint(out, "aib> ")
	}
}

// preload fills a flights table with 10,000 rows and a partial index on
// the delay column, all through Exec.
func preload(db *repro.DB) error {
	ctx := context.Background()
	if _, err := db.Exec(ctx, "CREATE TABLE flights (airport VARCHAR, delay INT, details VARCHAR)"); err != nil {
		return err
	}
	airports := []string{"ORD", "JFK", "LAX", "FRA", "MUC", "HEL"}
	rng := rand.New(rand.NewSource(1))
	pad := strings.Repeat("d", 250)
	const batch = 500
	for lo := 0; lo < 10000; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO flights VALUES ")
		for i := 0; i < batch; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "('%s', %d, '%s')",
				airports[rng.Intn(len(airports))], rng.Intn(120), pad)
		}
		if _, err := db.Exec(ctx, sb.String()); err != nil {
			return err
		}
	}
	_, err := db.Exec(ctx, "CREATE PARTIAL INDEX ON flights (delay) COVERING 0 TO 29")
	return err
}
