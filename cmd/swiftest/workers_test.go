package main

import (
	"flag"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestWorkersFlag(t *testing.T) {
	parse := func(args ...string) (int, error) {
		fs := flag.NewFlagSet("verb", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		n := workersFlag(fs, "workers")
		err := fs.Parse(args)
		return *n, err
	}
	if n, err := parse(); n != 0 || err != nil {
		t.Errorf("no -workers = %d, %v; want the default 0 (GOMAXPROCS)", n, err)
	}
	for _, v := range []int{0, 1, 2, 64} {
		if n, err := parse("-workers", strconv.Itoa(v)); n != v || err != nil {
			t.Errorf("-workers %d = %d, %v", v, n, err)
		}
	}
	for _, v := range []string{"-1", "-100", "x"} {
		_, err := parse("-workers", v)
		if err == nil {
			t.Fatalf("-workers %s accepted, want an error", v)
		}
		if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %s error %q does not name the flag", v, err)
		}
	}
}
