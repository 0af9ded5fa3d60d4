package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prism/internal/kv"
	"prism/internal/transport"
)

// script is the CI live smoke's session: a GET hit (a miss on an empty
// simulated store), a PUT, a GET of it, a DELETE, a GET miss, a GET again
// and the server's stats, then EOF.
const script = "get 5\nput 200 live smoke\nget 200\ndel 200\nget 200\nget 5\nstats\n"

// session runs script through the REPL and returns each command's reply,
// the text between two prompts.
func session(t *testing.T, backend ops, script string) ([]string, error) {
	t.Helper()
	var out strings.Builder
	err := repl(backend, strings.NewReader(script), &out)
	replies := strings.Split(out.String(), "> ")
	if replies[0] != "" {
		t.Fatalf("output %q does not open with a prompt", out.String())
	}
	for i := range replies {
		replies[i] = strings.TrimSuffix(replies[i], "\n")
	}
	return replies[1:], err
}

// checkReplies matches each reply against the prefix it must start with;
// the last reply is what EOF left: an empty line.
func checkReplies(t *testing.T, replies, prefixes []string) {
	t.Helper()
	if len(replies) != len(prefixes)+1 || replies[len(prefixes)] != "" {
		t.Fatalf("replies %q: want %d and an empty line at EOF", replies, len(prefixes))
	}
	for i, p := range prefixes {
		if !strings.HasPrefix(replies[i], p) {
			t.Errorf("reply %d = %q, want it to start with %q", i, replies[i], p)
		}
	}
}

func TestREPLSimulated(t *testing.T) {
	backend, _, err := newSimOps("sw", "rack", 1024)
	if err != nil {
		t.Fatal(err)
	}
	replies, err := session(t, backend, script)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	checkReplies(t, replies, []string{
		"(not found) (", "OK (", `"live smoke" (`, "OK (", "(not found) (", "(not found) (",
		"server: ",
	})
	if !strings.HasSuffix(replies[0], " simulated)") {
		t.Errorf("a simulated reply %q does not say its latency is simulated", replies[0])
	}
}

// serveStore serves a 256-slot PRISM-KV store with keys 0..127 loaded on
// a unix socket under the test's directory, as prismd -keys 256 -load 128
// does, and returns the socket's path and the server.
func serveStore(t *testing.T) (string, *transport.Server) {
	t.Helper()
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(256, 1024))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 128; k++ {
		if err := store.Load(k, []byte(fmt.Sprintf("value-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "prism.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ts.Serve(l) }()
	t.Cleanup(func() {
		ts.Shutdown(time.Second)
		if err := <-served; err != transport.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	return path, ts
}

func TestREPLLive(t *testing.T) {
	path, _ := serveStore(t)
	live, err := newLiveOps(path)
	if err != nil {
		t.Fatal(err)
	}
	defer live.tc.Close()
	replies, err := session(t, live, script)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	checkReplies(t, replies, []string{
		`"value-5" (`, "OK (", `"live smoke" (`, "OK (", "(not found) (", `"value-5" (`,
		"live server at " + path + ": 256 slots",
	})
	if !strings.HasSuffix(replies[0], " wall clock: one indirect bounded READ)") {
		t.Errorf("a live reply %q does not say its latency is wall clock", replies[0])
	}
}

// TestREPLDeadServer: a session whose server has gone ends with the
// transport's error at its first command, not with a reply.
func TestREPLDeadServer(t *testing.T) {
	path, ts := serveStore(t)
	live, err := newLiveOps(path)
	if err != nil {
		t.Fatal(err)
	}
	defer live.tc.Close()
	ts.Shutdown(time.Second)
	replies, err := session(t, live, script)
	if err == nil {
		t.Fatalf("session against a dead server ended cleanly: replies %q", replies)
	}
	if len(replies) != 1 || replies[0] != "" {
		t.Errorf("replies %q before the error, want none", replies)
	}
}

// TestREPLKeyOutsideTable: the CI live smoke's range check. The 256-slot
// store has no slot for key 256, so each command on it replies with the
// range error, and the session goes on to serve key 5.
func TestREPLKeyOutsideTable(t *testing.T) {
	path, _ := serveStore(t)
	live, err := newLiveOps(path)
	if err != nil {
		t.Fatal(err)
	}
	defer live.tc.Close()
	replies, err := session(t, live, "put 256 x\nget 256\ndel 256\nget 5\n")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	checkReplies(t, replies, []string{
		"kv: key outside the table: 256 not in [0,256)",
		"kv: key outside the table: 256 not in [0,256)",
		"kv: key outside the table: 256 not in [0,256)",
		`"value-5" (`,
	})
}
