package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare writes, for every (scenario, row, metric) of two reports, the old
// value, the new value and the change in percent of the old one, in the
// old report's row order with metrics sorted by name. A metric one side
// lacks shows "-". Rows only one report has are listed after the table,
// then every bound whose verdict differs between the two, with its value
// and (for a timing bound) its interval on each side, and every bound only
// one report has.
func compare(w io.Writer, oldRep, newRep *report) error {
	type key struct{ scenario, row string }
	newRows := map[key]row{}
	for _, sc := range newRep.Scenarios {
		for _, r := range sc.Rows {
			newRows[key{sc.Name, r.Name}] = r
		}
	}
	num := func(m map[string]float64, name string) (float64, string) {
		v, ok := m[name]
		if !ok {
			return 0, "-"
		}
		return v, strconv.FormatFloat(v, 'g', 6, 64)
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\trow\tmetric\told\tnew\tdelta%")
	matched := map[key]bool{}
	var onlyOld []key
	for _, sc := range oldRep.Scenarios {
		for _, or := range sc.Rows {
			k := key{sc.Name, or.Name}
			nr, ok := newRows[k]
			if !ok {
				onlyOld = append(onlyOld, k)
				continue
			}
			matched[k] = true
			var names []string
			for m := range or.Metrics {
				names = append(names, m)
			}
			for m := range nr.Metrics {
				if _, dup := or.Metrics[m]; !dup {
					names = append(names, m)
				}
			}
			slices.Sort(names)
			for _, m := range names {
				ov, oldText := num(or.Metrics, m)
				nv, newText := num(nr.Metrics, m)
				delta := "-"
				if oldText != "-" && newText != "-" && ov != 0 {
					delta = fmt.Sprintf("%+.1f", deltaPct(ov, nv))
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", sc.Name, or.Name, m, oldText, newText, delta)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, k := range onlyOld {
		fmt.Fprintf(w, "only in old: %s %s\n", k.scenario, k.row)
	}
	for _, sc := range newRep.Scenarios {
		for _, r := range sc.Rows {
			if !matched[key{sc.Name, r.Name}] {
				fmt.Fprintf(w, "only in new: %s %s\n", sc.Name, r.Name)
			}
		}
	}

	newBounds := map[key]bound{}
	for _, sc := range newRep.Scenarios {
		for _, b := range sc.Bounds {
			newBounds[key{sc.Name, b.Name}] = b
		}
	}
	for _, sc := range oldRep.Scenarios {
		for _, b := range sc.Bounds {
			k := key{sc.Name, b.Name}
			nb, ok := newBounds[k]
			switch {
			case !ok:
				fmt.Fprintf(w, "bound only in old: %s %s\n", sc.Name, b.Name)
			case nb.verdict() != b.verdict():
				fmt.Fprintf(w, "bound %s %s: %v -> %v\n", sc.Name, b.Name, b, nb)
			}
			delete(newBounds, k)
		}
	}
	for _, sc := range newRep.Scenarios {
		for _, b := range sc.Bounds {
			if _, ok := newBounds[key{sc.Name, b.Name}]; ok {
				fmt.Fprintf(w, "bound only in new: %s %s\n", sc.Name, b.Name)
			}
		}
	}
	return nil
}
