package bench

import (
	"fmt"
	"os"
	"syscall"
	"testing"
)

// TestMain reports the test process's peak resident set when the tests
// end. go test shows it when it shows test output: run in the package
// directory (as `make race` does, one process per heavy test) or with -v.
func TestMain(m *testing.M) {
	code := m.Run()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		fmt.Fprintf(os.Stderr, "internal/bench: peak_rss_mb=%d\n", ru.Maxrss>>10) // Maxrss is in KiB
	}
	os.Exit(code)
}
