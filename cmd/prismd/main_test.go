package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"prism/internal/abd"
	"prism/internal/alloc"
	"prism/internal/kv"
	"prism/internal/transport"
	"prism/internal/tx"
)

// TestMemoryLine: the drain summary's memory line names every class that
// carved and no other, and 128 loaded keys of 1 KiB sit in the fewest
// slabs of buffers their own size (1040 bytes behind the entry header, not
// 2048) beside a hash table of one region.
func TestMemoryLine(t *testing.T) {
	const loaded = 128
	ts := transport.NewServer()
	store, err := kv.NewServerOn(ts, kv.DefaultOptions(256, 1024))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < loaded; k++ {
		if err := store.Load(k, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	const perSlab = alloc.SlabBytes / 1040
	const slabs = (loaded + perSlab - 1) / perSlab
	line := memoryLine(ts)
	m := regexp.MustCompile(`^prismd: memory: registered=(\d+) regions=(\d+) \| buf=1040 slabs=(\d+) free=(\d+) pending=0$`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("memory line %q: want one class, of 1040-byte buffers", line)
	}
	if got, _ := strconv.Atoi(m[3]); got != slabs {
		t.Fatalf("slabs=%d for %d keys of 1 KiB, want %d of %d buffers", got, loaded, slabs, perSlab)
	}
	if got, _ := strconv.Atoi(m[2]); got != 1+slabs {
		t.Fatalf("regions=%d, want the hash table and %d slabs", got, slabs)
	}
	if n, _ := strconv.Atoi(m[1]); n <= slabs*perSlab*1040 || n >= slabs*perSlab*1040+alloc.SlabBytes {
		t.Fatalf("registered=%d, want %d slabs (%d bytes) and a hash table smaller than a slab", n, slabs, slabs*perSlab*1040)
	}
	if free, _ := strconv.Atoi(m[4]); free != slabs*perSlab-loaded {
		t.Fatalf("free=%d, want the slabs' %d buffers less the %d loaded", free, slabs*perSlab, loaded)
	}
}

// loaded is what -load stores under every key: -value bytes 0, 1, 2, ...
func loaded(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i)
	}
	return v
}

// TestServeEveryApp serves each -app on a unix socket, dials it with
// transport.DialMeta under the app's name, runs one operation through that
// package's client, stops the server and checks that the drain summary
// names the app.
func TestServeEveryApp(t *testing.T) {
	const value = 32
	want, put := loaded(value), bytes.Repeat([]byte{0xAB}, value)
	// expect checks a read against want.
	expect := func(v []byte, err error) error {
		if err == nil && !bytes.Equal(v, want) {
			err = fmt.Errorf("read %x, want %x", v, want)
		}
		return err
	}
	// commit reads key 5, which -load stored, overwrites it in one
	// transaction and reads the new value back in the next.
	commit := func(begin func() txn) error {
		t1 := begin()
		if err := expect(t1.Read(5)); err != nil {
			return err
		}
		t1.Write(5, put)
		if _, err := t1.Commit(); err != nil {
			return err
		}
		v, err := begin().Read(5)
		if err == nil && !bytes.Equal(v, put) {
			err = fmt.Errorf("read %x after the commit, want %x", v, put)
		}
		return err
	}
	apps := []struct {
		app  string
		args []string
		op   func(dial func(meta any) transport.Issuer) error
	}{
		{"kv", []string{"-load", "16"}, func(dial func(any) transport.Issuer) error {
			var m kv.Meta
			conn := dial(&m)
			return expect(kv.NewClient(conn, m, 1).Get(5))
		}},
		{"pilaf", []string{"-load", "16"}, func(dial func(any) transport.Issuer) error {
			var m kv.PilafMeta
			conn := dial(&m)
			return expect(kv.NewPilafClient(conn, m, 0).Get(5))
		}},
		{"rs", nil, func(dial func(any) transport.Issuer) error {
			var m abd.Meta
			conn := dial(&m)
			c := abd.NewClient(1, []transport.Issuer{conn}, []abd.Meta{m})
			if err := c.Put(3, want); err != nil {
				return err
			}
			return expect(c.Get(3))
		}},
		{"lock", nil, func(dial func(any) transport.Issuer) error {
			var m abd.LockMeta
			conn := dial(&m)
			c := abd.NewLockClient(1, []transport.Issuer{conn}, []abd.LockMeta{m}, nil)
			if err := c.Put(3, want); err != nil {
				return err
			}
			return expect(c.Get(3))
		}},
		{"tx", []string{"-load", "16"}, func(dial func(any) transport.Issuer) error {
			var m tx.Meta
			conn := dial(&m)
			c := tx.NewClient(1, []transport.Issuer{conn}, []tx.Meta{m})
			return commit(func() txn { return c.Begin() })
		}},
		{"farm", []string{"-load", "16"}, func(dial func(any) transport.Issuer) error {
			var m tx.FarmMeta
			conn := dial(&m)
			c := tx.NewFarmClient(1, []transport.Issuer{conn}, []tx.FarmMeta{m})
			return commit(func() txn { return c.Begin() })
		}},
	}
	for _, a := range apps {
		t.Run(a.app, func(t *testing.T) {
			sock := filepath.Join(t.TempDir(), "p.sock")
			var out bytes.Buffer
			stop, done := make(chan os.Signal, 1), make(chan error, 1)
			args := append([]string{"-unix", sock, "-app", a.app, "-value", strconv.Itoa(value)}, a.args...)
			go func() { done <- run(args, &out, stop) }()
			stopped := false
			drain := func() error {
				stopped = true
				stop <- syscall.SIGTERM
				return <-done
			}
			t.Cleanup(func() {
				if !stopped {
					drain()
				}
			})
			waitForSocket(t, sock, done)

			err := a.op(func(meta any) transport.Issuer {
				tc, conn, err := transport.DialMeta(sock, a.app, meta)
				if err != nil {
					t.Fatalf("DialMeta: %v", err)
				}
				t.Cleanup(func() { tc.Close() })
				return conn
			})
			if err != nil {
				t.Fatalf("%s operation: %v", a.app, err)
			}
			if err := drain(); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "prismd: "+a.app+" served ") {
				t.Errorf("the drain summary does not name %s:\n%s", a.app, out.String())
			}
		})
	}
}

// txn is a PRISM-TX or FaRM transaction.
type txn interface {
	Read(key int64) ([]byte, error)
	Write(key int64, value []byte)
	Commit() (tx.Timestamp, error)
}

// waitForSocket returns once the server listens on sock, failing the test
// if run returns first or the socket does not appear.
func waitForSocket(t *testing.T, sock string, done chan error) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(sock); err == nil {
			return
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
	}
	t.Fatal("the server never listened")
}

// TestUsage: an unknown -app (chain is no longer served, with or without
// a depth, and no app takes an argument) and -load for a replica, which
// has nothing to load, are usage errors, which exit 2.
func TestUsage(t *testing.T) {
	for _, app := range [][]string{
		{"-app", "nope"},
		{"-app", "chain"},
		{"-app", "chain:4"},
		{"-app", "kv:3"},
		{"-app", "rs", "-load", "4"},
		{"-app", "lock", "-load", "4"},
	} {
		args := append([]string{"-keys", "16", "-unix", filepath.Join(t.TempDir(), "p.sock")}, app...)
		if err := run(args, io.Discard, nil); !errors.Is(err, errUsage) {
			t.Errorf("run %q: %v, want a usage error", app, err)
		}
	}
}

// TestLoadPastTheTableFails: kv and pilaf serve keys 0..keys-1, one slot
// each, so -load past -keys fails before serving and names the first key
// the table has no slot for, instead of storing it in another key's slot.
func TestLoadPastTheTableFails(t *testing.T) {
	for _, app := range []string{"kv", "pilaf"} {
		sock := filepath.Join(t.TempDir(), "p.sock")
		stop := make(chan os.Signal, 1)
		stop <- syscall.SIGTERM // a server that does start drains at once
		err := run([]string{"-unix", sock, "-app", app, "-keys", "256", "-load", "300"}, io.Discard, stop)
		if !errors.Is(err, kv.ErrKeyRange) || !strings.Contains(err.Error(), "key 256") {
			t.Errorf("-app %s -keys 256 -load 300: %v, want a range error naming key 256", app, err)
		}
		if _, err := os.Stat(sock); err == nil {
			t.Errorf("-app %s listened before its load failed", app)
		}
	}
}

// TestEveryFlagIsDocumented: every flag -h lists appears as -name in
// README.md or in the package doc, so no flag is there that no reader can
// find.
func TestEveryFlagIsDocumented(t *testing.T) {
	// The usage goes to the process's stderr.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = run([]string{"-h"}, io.Discard, nil)
	os.Stderr = stderr
	w.Close()
	usage, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("-h: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(string(usage), -1)
	if len(flags) == 0 {
		t.Fatalf("no flags in the usage:\n%s", usage)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	pkgDoc, _, _ := strings.Cut(string(src), "\npackage main")
	docs := string(readme) + pkgDoc
	for _, f := range flags {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f[1]) + `([^\w-]|$)`).MatchString(docs) {
			t.Errorf("-%s is in the usage but neither in README.md nor in the package doc", f[1])
		}
	}
}
