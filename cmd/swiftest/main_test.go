package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestParseServers(t *testing.T) {
	got, err := parseServers("a.example:7007@250, b.example:7007 ,c.example:7007@10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d servers, want 3", len(got))
	}
	if got[0].Addr != "a.example:7007" || got[0].UplinkMbps != 250 {
		t.Errorf("first = %+v", got[0])
	}
	if got[1].Addr != "b.example:7007" || got[1].UplinkMbps != 100 {
		t.Errorf("default uplink = %+v", got[1])
	}
	if got[2].UplinkMbps != 10 {
		t.Errorf("third = %+v", got[2])
	}
}

func TestParseServersIPv6(t *testing.T) {
	got, err := parseServers("[::1]:7007@50")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Addr != "[::1]:7007" || got[0].UplinkMbps != 50 {
		t.Errorf("IPv6 = %+v", got[0])
	}
}

func TestParseServersErrors(t *testing.T) {
	for _, spec := range []string{"", "host:1@zero", "host:1@-5", "host:1@", "host:1@0", "host:1@NaN", "host:1@Inf", "host:1@+Inf", "host:1@-Inf"} {
		if _, err := parseServers(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestVerbTable: verb names are unique, every verb has help text, and usage
// lists exactly the table, in order.
func TestVerbTable(t *testing.T) {
	seen := map[string]bool{}
	var want []string
	for _, v := range verbs {
		if seen[v.name] {
			t.Errorf("verb %q appears twice", v.name)
		}
		seen[v.name] = true
		if strings.TrimSpace(v.help) == "" {
			t.Errorf("verb %q has no help text", v.name)
		}
		if v.run == nil {
			t.Errorf("verb %q has no run func", v.name)
		}
		want = append(want, v.name)
	}
	var buf bytes.Buffer
	usage(&buf)
	_, listing, ok := strings.Cut(buf.String(), "commands:\n")
	if !ok {
		t.Fatalf("usage has no commands section:\n%s", buf.String())
	}
	var got []string
	for _, line := range strings.Split(listing, "\n") {
		if !strings.HasPrefix(line, "  ") {
			break
		}
		got = append(got, strings.Fields(line)[0])
	}
	if !slices.Equal(got, want) {
		t.Errorf("usage lists %v, want the verb table %v", got, want)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	return <-out, runErr
}

// TestUnknownNamesAreUsageErrors: an unknown -report or -only name is a
// usage error (exit 2), found before any input is read or any output
// written.
func TestUnknownNamesAreUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"analyze -report techs", func() error { return analyze([]string{"-report", "techs", "-i", "no-such-file.jsonl"}) }},
		{"claims -only fig99", func() error { return claimsCmd([]string{"-only", "fig99"}) }},
	} {
		stdout, err := captureStdout(t, c.run)
		if !errors.As(err, new(usageError)) {
			t.Errorf("%s: err = %v, want a usage error", c.name, err)
		}
		if stdout != "" {
			t.Errorf("%s wrote %q to stdout, want nothing", c.name, stdout)
		}
	}
}
