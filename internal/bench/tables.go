// Package bench is the experiment harness: for every quantitative claim and
// figure of the paper it provides a runner that regenerates the
// corresponding table (the runners' doc comments in experiments.go are the
// experiment index E1–E14).
// cmd/benchtables prints all tables; bench_test.go wraps each runner in a
// testing.B benchmark.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Smoke runs tiny instances: seconds in total, used by unit tests.
	Smoke Scale = iota
	// Standard runs the sizes recorded in EXPERIMENTS.md: a few minutes.
	Standard
	// Full runs the largest documented sizes: tens of minutes.
	Full
)

// ParseScale converts a flag value into a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "smoke":
		return Smoke, nil
	case "standard", "":
		return Standard, nil
	case "full":
		return Full, nil
	}
	return Smoke, fmt.Errorf("bench: unknown scale %q (want smoke, standard or full)", s)
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-text footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// WriteAll runs every experiment at the given scale and writes the tables.
func WriteAll(w io.Writer, scale Scale) error {
	runners := []func(Scale) (*Table, error){
		E1RoundsVsDelta,
		E2RoundsVsN,
		E3SlackReduction,
		E4Defective,
		E5Levels,
		E6SpaceReduction,
		E7Chain,
		E8Fig5,
		E9TheoryPreset,
		E11VirtualSplit,
		E12AlgorithmMatrix,
		E13AblationPhases,
		E14Engines,
	}
	for _, run := range runners {
		tbl, err := run(scale)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, tbl.Markdown()); err != nil {
			return err
		}
	}
	return nil
}

func itoa(x int) string { return fmt.Sprintf("%d", x) }

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
