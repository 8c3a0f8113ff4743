package claims

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestPaperClaims checks every claim of the paper at Quick scale, seed 1.
func TestPaperClaims(t *testing.T) {
	c := NewCorpus(context.Background(), Quick, 1, 0)
	for _, r := range Table {
		t.Run(r.ID, func(t *testing.T) {
			v, err := c.check(r)
			if err != nil {
				t.Fatalf("%s %s: %v", r.Src, r.Quantity, err)
			}
			if !r.Holds(v.V) {
				t.Errorf("%s %s: paper %s, measured %s", r.Src, r.Quantity, r.Paper, v.S)
			}
		})
	}
}

// srcKey maps a row's source to its figure key: "Fig 4" → fig4, "§5.3" → sec5.3.
func srcKey(src string) string {
	return strings.NewReplacer("Fig ", "fig", "Tab ", "tab", "§", "sec").Replace(src)
}

func TestClaimsTableComplete(t *testing.T) {
	ids := map[string]bool{}
	covered := map[string]bool{}
	cited := map[string]bool{}
	for _, r := range Table {
		if ids[r.ID] {
			t.Errorf("duplicate row ID %s", r.ID)
		}
		ids[r.ID] = true
		if figure(r.ID) != srcKey(r.Src) {
			t.Errorf("row %s: figure key %q does not match source %q", r.ID, figure(r.ID), r.Src)
		}
		covered[r.Src] = true
		if r.Quantity == "" || r.Paper == "" || r.Measure == nil || r.Holds == nil {
			t.Errorf("row %s lacks a quantity, paper value, measurement or predicate", r.ID)
		}
		if r.Note != "" {
			cited[r.Note] = true
			if Notes[r.Note] == "" {
				t.Errorf("row %s cites undefined footnote %q", r.ID, r.Note)
			}
		}
	}
	want := []string{"Tab 1", "Tab 2", "§3.1", "§5.2", "§5.3", "§7"}
	for f := 1; f <= 26; f++ {
		want = append(want, fmt.Sprintf("Fig %d", f))
	}
	for _, src := range want {
		if !covered[src] {
			t.Errorf("no row for %s", src)
		}
	}
	for key := range Notes {
		if !cited[key] {
			t.Errorf("footnote %q is cited by no row", key)
		}
	}
	// -only selects by row ID or figure key; a name matching nothing is an
	// error, not an empty run.
	if rows, err := Select(""); err != nil || len(rows) != len(Table) {
		t.Errorf("empty selection: %d rows, %v; want the whole table", len(rows), err)
	}
	rows, err := Select("fig4, FIG22.deviation")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.ID)
	}
	if s := strings.Join(got, " "); s != "fig4.body fig4.below10 fig4.above300 fig22.deviation" {
		t.Errorf("Select(fig4, FIG22.deviation) = %s", s)
	}
	for _, only := range []string{"fig27", "fig4,nosuch", "fig4.", "earlystop"} {
		if rows, err := Select(only); err == nil {
			t.Errorf("Select(%q) = %d rows, want an error", only, len(rows))
		}
	}
}

func TestRunMarksFailuresAndNumbersNotes(t *testing.T) {
	shows := func(s string) func(*Corpus) M { return func(*Corpus) M { return M{V: []float64{0}, S: s} } }
	holds := func(ok bool) func([]float64) bool { return func([]float64) bool { return ok } }
	rows := []Row{
		{ID: "fig4.a", Src: "Fig 4", Quantity: "q1", Paper: "1", Note: "maxima", Measure: shows("2"), Holds: holds(true)},
		{ID: "fig7.b", Src: "Fig 7", Quantity: "q2", Paper: "3", Note: "maxima", Measure: shows("9"), Holds: holds(false)},
		{ID: "sec7.c", Src: "§7", Quantity: "q3", Paper: "4", Holds: holds(true),
			Measure: func(c *Corpus) M { c.err = errors.New("boom"); return M{} }},
	}
	var out strings.Builder
	failed, err := NewCorpus(context.Background(), Quick, 7, 1).Run(&out, rows)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(failed, " ") != "fig7.b sec7.c" {
		t.Errorf("failed = %v, want [fig7.b sec7.c]", failed)
	}
	for _, want := range []string{
		"| Fig 4 | q1 | 1 | 2 ¹ |\n",
		"| Fig 7 | q2 | 3 | 9 ¹ ✗ |\n",
		"| §7 | q3 | 4 | error: boom ✗ |\n",
		"\n¹ " + Notes["maxima"] + "\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "²") {
		t.Errorf("one cited note numbered twice:\n%s", out.String())
	}
}
