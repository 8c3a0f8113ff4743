package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// Terminal charts that keep the reports' regenerated figures legible.

// bar renders one horizontal bar scaled so that maxValue fills width runes;
// any positive value gets at least one rune.
func bar(value, maxValue float64, width int) string {
	if width <= 0 || maxValue <= 0 || value <= 0 {
		return ""
	}
	return strings.Repeat("█", min(width, max(int(math.Round(value/maxValue*float64(width))), 1)))
}

// barRow is one labelled value of a barChart.
type barRow struct {
	Label string
	Value float64
}

// barChart renders labelled horizontal bars with their values and unit,
// width runes for the largest (zero selects 40).
func barChart(rows []barRow, unit string, width int) string {
	if width <= 0 {
		width = 40
	}
	var maxV float64
	labelW := 0
	for _, r := range rows {
		maxV, labelW = math.Max(maxV, r.Value), max(labelW, len(r.Label))
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s %8.1f %s %s\n", labelW, r.Label, r.Value, unit, bar(r.Value, maxV, width))
	}
	return sb.String()
}

// sparkRunes are the eight block glyphs of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a one-line sparkline scaled to the data range.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := slices.Min(values), slices.Max(values)
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[min(max(idx, 0), len(sparkRunes)-1)])
	}
	return sb.String()
}

// cdfGrid renders an empirical CDF (stats.Sample.CDF points) as an ASCII
// grid of the given size: X spans [0, max], Y spans [0, 1].
func cdfGrid(points []stats.CDFPoint, width, height int) string {
	if len(points) == 0 || width <= 0 || height <= 0 || points[len(points)-1].X <= 0 {
		return ""
	}
	maxX := points[len(points)-1].X
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range points {
		col, row := int(p.X/maxX*float64(width-1)), height-1-int(p.F*float64(height-1))
		if col >= 0 && col < width && row >= 0 && row < height {
			grid[row][col] = '*'
		}
	}
	var sb strings.Builder
	for i, row := range grid {
		fmt.Fprintf(&sb, "%4.2f |%s|\n", 1-float64(i)/float64(height-1), string(row))
	}
	label := fmt.Sprintf("%.0f", maxX)
	fmt.Fprintf(&sb, "      0%s%s\n", strings.Repeat(" ", width-len(label)), label)
	return sb.String()
}
