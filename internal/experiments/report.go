package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/compress"
	"repro/internal/gpu/sim"
)

// Figure is one of the paper's evaluation figures: the cells it reads and
// how it renders from them. Report, `slcbench -fig N` and its -parallel
// prefetch all read the Figures table, so a figure added there is covered
// by each of them.
type Figure struct {
	Num int
	// Full and Comp return the full-run cells (warm with RunAll) and the
	// compression-only cells (warm with CompressAll) the figure reads.
	Full, Comp func() []Cell
	// Render computes the figure through the runner's memoised cells.
	Render func(*Runner) (fmt.Stringer, error)
}

// Figures are the paper's evaluation figures in report order.
var Figures = []Figure{
	{1, noCells, fig12Cells, func(r *Runner) (fmt.Stringer, error) { return Figure1(r, compress.MAG32) }},
	{2, noCells, fig12Cells, func(r *Runner) (fmt.Stringer, error) { return Figure2(r, compress.MAG32) }},
	{7, Fig7Cells, noCells, func(r *Runner) (fmt.Stringer, error) { return Figure7(r) }},
	{8, Fig7Cells, noCells, func(r *Runner) (fmt.Stringer, error) { return Figure8(r) }},
	{9, Fig9Cells, noCells, func(r *Runner) (fmt.Stringer, error) { return Figure9(r) }},
}

func noCells() []Cell    { return nil }
func fig12Cells() []Cell { return CompressionCells(compress.MAG32) }

// LookupFigure returns the Figures entry numbered n.
func LookupFigure(n int) (Figure, error) {
	var have []string
	for _, f := range Figures {
		if f.Num == n {
			return f, nil
		}
		have = append(have, strconv.Itoa(f.Num))
	}
	return Figure{}, fmt.Errorf("unknown figure %d (have %s)", n, strings.Join(have, ", "))
}

// Report runs the full evaluation — every table and figure — and writes the
// rendered results. It is what `slcbench -all` and EXPERIMENTS.md use.
func Report(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "SLC reproduction: all tables and figures")
	fmt.Fprintln(w, "========================================")
	fmt.Fprintln(w)

	fmt.Fprint(w, TableII(sim.DefaultConfig()))
	fmt.Fprintln(w)
	fmt.Fprint(w, TableIII())
	fmt.Fprintln(w)
	fmt.Fprint(w, TableI())
	fmt.Fprintln(w)

	for _, f := range Figures {
		s, err := f.Render(r)
		if err != nil {
			return fmt.Errorf("figure %d: %w", f.Num, err)
		}
		fmt.Fprint(w, s)
		fmt.Fprintln(w)
	}

	ab, err := RunAblations(r)
	if err != nil {
		return fmt.Errorf("ablations: %w", err)
	}
	fmt.Fprint(w, ab)
	return nil
}
