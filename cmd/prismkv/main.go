// Command prismkv is an interactive demo of PRISM-KV: a REPL where
// every command runs the real protocol (indirect bounded READs,
// ALLOCATE/WRITE/CAS chains) and reports the round-trip cost.
//
// By default commands run against a simulated server and latencies are
// simulated. With -connect it speaks to a live prismd over tcp or a
// unix socket instead, and latencies are wall-clock:
//
//	prismkv -connect /tmp/prism.sock
//	prismkv -connect 127.0.0.1:7171
//
// Commands:
//
//	put <key> <value>   store a value (chained one-sided update)
//	get <key>           read a value (one indirect bounded READ)
//	del <key>           delete a key
//	stats               server counters
//	quit
//
// Flags select the NIC deployment and network profile (simulated mode),
// so the same operations can be compared across PRISM-SW /
// projected-hardware / BlueField data paths and rack/cluster/datacenter
// networks.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"prism"
	"prism/internal/kv"
	"prism/internal/sim"
	"prism/internal/transport"
)

// ops is the REPL's backend: a simulated cluster or a live server, each
// holding one kv.Client, and the clock that prices its commands.
type ops interface {
	timed(fn func(*kv.Client) error) (time.Duration, error) // runs fn and returns its cost
	stats() string
	costNote() string // e.g. "simulated" vs "wall clock"
}

func main() {
	connect := flag.String("connect", "", "live prismd address: host:port is tcp, anything else (a path, relative or not) a unix socket; default is the simulator")
	deployFlag := flag.String("deploy", "sw", "NIC deployment: sw, hw-proj, bluefield (simulated mode)")
	netFlag := flag.String("net", "rack", "network profile: direct, rack, cluster, datacenter (simulated mode)")
	nKeys := flag.Int64("keys", 1024, "hash table slots (simulated mode)")
	flag.Parse()

	var backend ops
	if *connect != "" {
		live, err := newLiveOps(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prismkv:", err)
			os.Exit(1)
		}
		defer live.tc.Close()
		backend = live
		fmt.Printf("PRISM-KV REPL — live server at %s (latencies are wall clock)\n", *connect)
	} else {
		simBackend, banner, err := newSimOps(*deployFlag, *netFlag, *nKeys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prismkv:", err)
			os.Exit(2)
		}
		backend = simBackend
		fmt.Println(banner)
	}

	if err := repl(backend, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prismkv:", err)
		os.Exit(1)
	}
}

// repl reads commands from in until quit or EOF (ctrl-D exits cleanly),
// writing prompts and replies to out. A backend error that is not a
// per-command protocol miss — a dead connection, for example — ends the
// session with that error.
func repl(backend ops, in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		fields := strings.Fields(line)
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		cmd, args := fields[0], fields[1:]
		if cmd == "quit" || cmd == "exit" {
			return nil
		}
		if err := runOp(backend, out, cmd, args); err != nil {
			return err
		}
		fmt.Fprint(out, "> ")
	}
	fmt.Fprintln(out) // EOF: leave the shell on a fresh line
	return scanner.Err()
}

// runOp executes one command. Protocol-level misses (not found, bad
// input) print and return nil; transport failures return the error.
func runOp(backend ops, out io.Writer, cmd string, args []string) error {
	parseKey := func() (int64, bool) {
		if len(args) < 1 {
			fmt.Fprintln(out, "need a key")
			return 0, false
		}
		k, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			fmt.Fprintln(out, "keys are integers")
			return 0, false
		}
		return k, true
	}
	switch cmd {
	case "put":
		k, ok := parseKey()
		if !ok {
			return nil
		}
		if len(args) < 2 {
			fmt.Fprintln(out, "need a value")
			return nil
		}
		val := strings.Join(args[1:], " ")
		d, err := backend.timed(func(c *kv.Client) error { return c.Put(k, []byte(val)) })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "OK (%v %s: probe RT + chained ALLOCATE/WRITE/CAS RT)\n", d, backend.costNote())
	case "get":
		k, ok := parseKey()
		if !ok {
			return nil
		}
		var v []byte
		d, err := backend.timed(func(c *kv.Client) (err error) { v, err = c.Get(k); return err })
		if errors.Is(err, kv.ErrNotFound) {
			fmt.Fprintf(out, "(not found) (%v %s)\n", d, backend.costNote())
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%q (%v %s: one indirect bounded READ)\n", v, d, backend.costNote())
	case "del":
		k, ok := parseKey()
		if !ok {
			return nil
		}
		d, err := backend.timed(func(c *kv.Client) error { return c.Delete(k) })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "OK (%v %s)\n", d, backend.costNote())
	case "stats":
		fmt.Fprintln(out, backend.stats())
	default:
		fmt.Fprintln(out, "commands: put <k> <v> | get <k> | del <k> | stats | quit")
	}
	return nil
}

// simOps runs commands on the simulated cluster; each command is one
// simulated process and the engine advances only while it executes.
type simOps struct {
	c   *prism.ClusterSim
	kvc *kv.Client
	srv *prism.Server
}

func newSimOps(deployFlag, netFlag string, nKeys int64) (*simOps, string, error) {
	var deploy prism.Deployment
	switch deployFlag {
	case "sw":
		deploy = prism.SoftwarePRISM
	case "hw-proj":
		deploy = prism.ProjectedHardwarePRISM
	case "bluefield":
		deploy = prism.BlueFieldPRISM
	default:
		return nil, "", errors.New("unknown deployment (PRISM needs sw, hw-proj, or bluefield)")
	}
	var network prism.SwitchProfile
	switch netFlag {
	case "direct":
		network = prism.Direct
	case "rack":
		network = prism.Rack
	case "cluster":
		network = prism.Cluster
	case "datacenter":
		network = prism.Datacenter
	default:
		return nil, "", errors.New("unknown network profile")
	}
	c := prism.NewCluster(prism.ClusterConfig{Seed: 1, Network: &network})
	srv := c.NewServer("kv", deploy)
	store, err := prism.NewKVServer(srv, prism.KVOptions(nKeys, 1024))
	if err != nil {
		return nil, "", err
	}
	client := kv.NewClient(c.NewClientMachine("repl").Connect(srv), store.Meta(), 1)
	banner := fmt.Sprintf("PRISM-KV REPL — deployment %v, network %s (all latencies are simulated)",
		deploy, network.Name)
	return &simOps{c: c, kvc: client, srv: srv}, banner, nil
}

// timed executes fn as one simulated process and returns the simulated
// time it took.
func (s *simOps) timed(fn func(*kv.Client) error) (time.Duration, error) {
	var d time.Duration
	var err error
	s.c.Go("cmd", func(p *sim.Proc) {
		start := p.Now()
		err = fn(s.kvc)
		d = p.Now().Sub(start)
	})
	s.c.Run()
	return d, err
}

func (s *simOps) stats() string {
	return fmt.Sprintf("server: %d requests served, %d ops executed",
		s.srv.RequestsServed, s.srv.OpsExecuted)
}

func (s *simOps) costNote() string { return "simulated" }

// liveOps runs commands against a prismd over a real socket.
type liveOps struct {
	tc   *transport.Client
	kvc  *kv.Client
	addr string
}

func newLiveOps(addr string) (*liveOps, error) {
	var meta kv.Meta
	tc, conn, err := transport.DialMeta(addr, "kv", &meta)
	if err != nil {
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	return &liveOps{tc: tc, kvc: kv.NewClient(conn, meta, 1), addr: addr}, nil
}

func (l *liveOps) timed(fn func(*kv.Client) error) (time.Duration, error) {
	start := time.Now()
	err := fn(l.kvc)
	return time.Since(start), err
}

func (l *liveOps) stats() string {
	m := l.kvc.Meta()
	return fmt.Sprintf("live server at %s: %d slots, hash mode %d, max value %d bytes",
		l.addr, m.NSlots, m.Hash, m.MaxValue)
}

func (l *liveOps) costNote() string { return "wall clock" }
