package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"prism/internal/bench"
)

// TestAllIsTheRegistryInOrder: `prismbench -format csv ... all` is, byte
// for byte, the registry's `all` members rendered in registry order under
// the Config the flags describe — the same entries and order
// internal/bench's TestFiguresGolden pins, so the CLI and the golden hash
// cannot drift apart.
func TestAllIsTheRegistryInOrder(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := strings.Fields("-format csv -keys 512 -measure 150us -max-clients 16 all")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("stderr not empty:\n%s", stderr.String())
	}

	cfg := bench.DefaultConfig()
	cfg.Keys = 512
	cfg.Measure = 150 * time.Microsecond
	cfg.ClientCounts = []int{1, 2, 4, 8, 16}
	var want bytes.Buffer
	members := 0
	for _, f := range bench.Figures {
		if f.All {
			f.Fn(cfg).FprintCSV(&want)
			members++
		}
	}
	if members == 0 || members == len(bench.Figures) {
		t.Fatalf("%d of %d registry figures are in `all`; want a proper subset", members, len(bench.Figures))
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("`all` output differs from the registry's all-members in registry order:\n--- cli ---\n%s--- registry ---\n%s",
			stdout.String(), want.String())
	}
}

// TestUsageErrors: an unknown figure, an unknown flag and a missing figure
// name all exit 2 and print the usage, which lists every registry name.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"fig99"}, {"-no-such-flag", "fig1"}, {}, {"fig1", "fig2"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout:\n%s", args, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, "usage: prismbench [flags] {") {
			t.Errorf("%q: no usage on stderr:\n%s", args, msg)
		}
		for _, f := range bench.Figures {
			if !strings.Contains(msg, f.Name+"|") {
				t.Errorf("%q: usage does not list %q:\n%s", args, f.Name, msg)
			}
		}
	}
}

// TestEveryRegistryNameIsAccepted renders each registry figure through the
// CLI at a tiny scale; the CSV rows carry the figure's own ID.
func TestEveryRegistryNameIsAccepted(t *testing.T) {
	for _, f := range bench.Figures {
		t.Run(f.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-format", "csv", "-keys", "512", "-measure", "100us", "-max-clients", "4", f.Name}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if len(lines) < 2 || !strings.HasPrefix(lines[1], f.Name+",") {
				t.Fatalf("no %s rows in output:\n%s", f.Name, stdout.String())
			}
		})
	}
}

// TestVerboseReportsPeakRSS: -v prints one telemetry line per figure on
// stderr, and the line ends in the process's peak resident set — the
// number that says what a keyspace costs the host, from the one command.
func TestVerboseReportsPeakRSS(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := strings.Fields("-v -format csv -keys 512 -measure 100us -max-clients 2 fig3")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	m := regexp.MustCompile(`(?m)^prismbench: fig3: .* peak_rss_mb=(\d+)$`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no fig3 telemetry line with peak_rss_mb on stderr:\n%s", stderr.String())
	}
	if mb, err := strconv.Atoi(m[1]); err != nil || mb <= 0 {
		t.Fatalf("peak_rss_mb=%s, want a positive number", m[1])
	}
}

// TestEveryFlagIsDocumented: every flag -h lists appears as -name in
// README.md or in the package doc, so no flag is there that no reader can
// find.
func TestEveryFlagIsDocumented(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	flags := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr.String(), -1)
	if len(flags) == 0 {
		t.Fatalf("no flags in the usage:\n%s", stderr.String())
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
