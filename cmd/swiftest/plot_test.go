package main

import (
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/mobilebandwidth/swiftest/internal/stats"
)

func TestBar(t *testing.T) {
	if got := bar(50, 100, 10); utf8.RuneCountInString(got) != 5 {
		t.Errorf("bar(50,100,10) = %q", got)
	}
	if got := bar(200, 100, 10); utf8.RuneCountInString(got) != 10 {
		t.Errorf("overflow not clamped: %q", got)
	}
	if got := bar(0.1, 100, 10); utf8.RuneCountInString(got) != 1 {
		t.Errorf("tiny positive value should render one block: %q", got)
	}
	if bar(0, 100, 10) != "" || bar(5, 0, 10) != "" || bar(5, 10, 0) != "" {
		t.Error("degenerate inputs should render empty")
	}
}

func TestBarChart(t *testing.T) {
	out := barChart([]barRow{{"N78", 332}, {"N1", 103}}, "Mbps", 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "N78") || !strings.Contains(lines[0], "332.0 Mbps") {
		t.Errorf("row: %q", lines[0])
	}
	// The larger value must have the longer bar.
	if strings.Count(lines[0], "█") <= strings.Count(lines[1], "█") {
		t.Error("bar lengths not ordered by value")
	}
	if barChart(nil, "", 0) != "" {
		t.Error("empty chart should render empty")
	}
}

func TestSparkline(t *testing.T) {
	got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(got) != 8 {
		t.Fatalf("length = %d, want 8", utf8.RuneCountInString(got))
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("extremes wrong: %q", got)
	}
	if sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	flat := sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat input should render the lowest glyph: %q", flat)
		}
	}
}

func TestCDFGrid(t *testing.T) {
	s := stats.NewSample([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	out := cdfGrid(s.CDF(), 40, 10)
	if out == "" {
		t.Fatal("empty render")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 11 { // height rows + axis
		t.Fatalf("lines = %d, want 11", len(lines))
	}
	if !strings.Contains(out, "*") {
		t.Error("no points plotted")
	}
	if !strings.HasPrefix(lines[0], "1.00") || !strings.HasPrefix(lines[9], "0.00") {
		t.Errorf("y-axis labels wrong: %q / %q", lines[0], lines[9])
	}
	if !strings.Contains(lines[10], "100") {
		t.Errorf("x-axis max missing: %q", lines[10])
	}
	if cdfGrid(nil, 40, 10) != "" {
		t.Error("empty points should render empty")
	}
}
