package main

import (
	"fmt"
	"io"
	"sort"
)

// report prints a run's metrics as comment lines ahead of the JSON result.
type report struct {
	title string
	rows  [][3]string
}

// newReport lists the metrics sorted by name, each with its note from
// notes (the sample count behind a percentile) when there is one.
func newReport(title string, ms map[string]metric, notes map[string]string) *report {
	r := &report{title: title}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := ms[n].Unit
		if note := notes[n]; note != "" {
			unit += "  (" + note + ")"
		}
		r.rows = append(r.rows, [3]string{n, fmt.Sprintf("%.6g", ms[n].Value), unit})
	}
	return r
}

// extra adds a metric that is not part of the JSON result.
func (r *report) extra(name string, v float64, unit, note string) {
	r.rows = append(r.rows, [3]string{name, fmt.Sprintf("%.6g", v), unit + "  (" + note + ")"})
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# perfbench %s\n", r.title)
	for _, row := range r.rows {
		fmt.Fprintf(w, "#   %-36s %14s %s\n", row[0], row[1], row[2])
	}
}
