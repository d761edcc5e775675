package main

import (
	"fmt"
	"slices"

	"indoorsq/internal/exec"
	"indoorsq/internal/snapshot/bundle"
)

// paperTab indexes the paper scenario's rows for its bounds.
type paperTab struct {
	plan []paperSetting
	rows map[string]map[string]float64
}

// row records one row in the report and in the table.
func (t paperTab) row(sc *scenario, name string, metrics map[string]float64) {
	sc.row(name, metrics)
	t.rows[name] = metrics
}

func (t paperTab) v(s paperSetting, engine, metric string) float64 {
	return t.rows[s.name(engine)][metric]
}

// of returns the settings of task in plan order, only those on datasets
// when any are given.
func (t paperTab) of(task string, datasets ...string) []paperSetting {
	var out []paperSetting
	for _, s := range t.plan {
		if s.task == task && (len(datasets) == 0 || slices.Contains(datasets, s.ds)) {
			out = append(out, s)
		}
	}
	return out
}

// with returns every query setting that measures kind.
func (t paperTab) with(kind exec.Kind) []paperSetting {
	var out []paperSetting
	for _, s := range t.plan {
		if s.has(kind) {
			out = append(out, s)
		}
	}
	return out
}

// claim counts the comparisons that break one shape claim and keeps the
// first for the log.
type claim struct {
	fails int
	first string
}

func (c *claim) want(ok bool, format string, args ...any) {
	if !ok {
		if c.fails == 0 {
			c.first = fmt.Sprintf(format, args...)
		}
		c.fails++
	}
}

// less wants a's metric below k times each of bs' at every setting in ss.
func (c *claim) less(t paperTab, ss []paperSetting, metric, a string, k float64, bs ...string) {
	for _, s := range ss {
		for _, b := range bs {
			va, vb := t.v(s, a, metric), t.v(s, b, metric)
			c.want(va < k*vb, "%s %s: %s %.4g, %s %.4g", s.name(""), metric, a, va, b, vb)
		}
	}
}

// grows wants engine's metric strictly increasing along ss.
func (c *claim) grows(t paperTab, ss []paperSetting, engine, metric string) {
	for i := 1; i < len(ss); i++ {
		a, b := t.v(ss[i-1], engine, metric), t.v(ss[i], engine, metric)
		c.want(a < b, "%s %s: %.4g at %s, %.4g at %s", engine, metric, a, ss[i-1].name(""), b, ss[i].name(""))
	}
}

// flat wants engine's metric along ss to stay within a factor of 2.
func (c *claim) flat(t paperTab, ss []paperSetting, engine, metric string) {
	lo, hi := t.v(ss[0], engine, metric), t.v(ss[0], engine, metric)
	for _, s := range ss[1:] {
		lo, hi = min(lo, t.v(s, engine, metric)), max(hi, t.v(s, engine, metric))
	}
	c.want(hi <= 2*lo, "%s %s over %s..%s: %.4g to %.4g", engine, metric, ss[0].name(""), ss[len(ss)-1].name(""), lo, hi)
}

func others(engine string) []string {
	return slices.DeleteFunc(slices.Clone(bundle.EngineNames), func(e string) bool { return e == engine })
}

// paperBounds are EXPERIMENTS.md's ✓ shape claims, one bound each, worded
// as the claim is. A bound's value is the number of comparisons that break
// it. "Flat" reads as max <= 2x min and "orders of magnitude" as 10x.
var paperBounds = []struct {
	name  string
	check func(t paperTab, c *claim)
}{
	{"A: size_mb and build_ms grow with floor count (SYN3 < SYN5 < SYN7 < SYN9) for every engine", func(t paperTab, c *claim) {
		for _, e := range bundle.EngineNames {
			c.grows(t, t.of("A", "SYN3", "SYN5", "SYN7", "SYN9"), e, "size_mb")
			c.grows(t, t.of("A", "SYN3", "SYN5", "SYN7", "SYN9"), e, "build_ms")
		}
	}},
	{"A: IDIndex size_mb and build_ms exceed every other engine's on every dataset", func(t paperTab, c *claim) {
		for _, e := range others("IDIndex") {
			c.less(t, t.of("A"), "size_mb", e, 1, "IDIndex")
			c.less(t, t.of("A"), "build_ms", e, 1, "IDIndex")
		}
	}},
	{"A: IDIndex size_mb >= 10x IDModel's and CIndex's on every dataset", func(t paperTab, c *claim) {
		c.less(t, t.of("A"), "size_mb", "IDModel", 0.1, "IDIndex")
		c.less(t, t.of("A"), "size_mb", "CIndex", 0.1, "IDIndex")
	}},
	{"A: IPTree and VIPTree size_mb between the graph models' (IDModel, CIndex) and IDIndex's on every dataset", func(t paperTab, c *claim) {
		for _, tree := range []string{"IPTree", "VIPTree"} {
			c.less(t, t.of("A"), "size_mb", "IDModel", 1, tree)
			c.less(t, t.of("A"), "size_mb", "CIndex", 1, tree)
			c.less(t, t.of("A"), "size_mb", tree, 1, "IDIndex")
		}
	}},
	{"A: VIPTree size_mb > IPTree's on every dataset", func(t paperTab, c *claim) {
		c.less(t, t.of("A"), "size_mb", "IPTree", 1, "VIPTree")
	}},
	{"A: IDModel build_ms < every other engine's on every dataset", func(t paperTab, c *claim) {
		c.less(t, t.of("A"), "build_ms", "IDModel", 1, others("IDModel")...)
	}},
	{"A: IDIndex size_mb is smallest on CPH, the dataset with fewest doors", func(t paperTab, c *claim) {
		cph := t.v(t.of("A", "CPH")[0], "IDIndex", "size_mb")
		for _, s := range t.of("A") {
			v := t.v(s, "IDIndex", "size_mb")
			c.want(s.ds == "CPH" || cph < v, "CPH %.4g, %s %.4g", cph, s.ds, v)
		}
	}},
	{"B1: IDIndex range_mem_mb grows with n", func(t paperTab, c *claim) {
		c.grows(t, t.of("B1"), "IDIndex", "range_mem_mb")
	}},
	{"B1: IDModel and CIndex spd_time_us grow with n", func(t paperTab, c *claim) {
		c.grows(t, t.of("B1"), "IDModel", "spd_time_us")
		c.grows(t, t.of("B1"), "CIndex", "spd_time_us")
	}},
	{"B1: IDIndex and VIPTree spd_time_us flat in n", func(t paperTab, c *claim) {
		c.flat(t, t.of("B1"), "IDIndex", "spd_time_us")
		c.flat(t, t.of("B1"), "VIPTree", "spd_time_us")
	}},
	{"B1: IDIndex and VIPTree spd_nvd < IPTree's < IDModel's and CIndex's at every n", func(t paperTab, c *claim) {
		c.less(t, t.of("B1"), "spd_nvd", "IDIndex", 1, "IPTree")
		c.less(t, t.of("B1"), "spd_nvd", "VIPTree", 1, "IPTree")
		c.less(t, t.of("B1"), "spd_nvd", "IPTree", 1, "IDModel", "CIndex")
	}},
	{"B2: range and knn time_us flat in |O| for every engine on every dataset", func(t paperTab, c *claim) {
		for _, ds := range queryDatasets {
			for _, e := range bundle.EngineNames {
				c.flat(t, t.of("B2", ds), e, "range_time_us")
				c.flat(t, t.of("B2", ds), e, "knn_time_us")
			}
		}
	}},
	{"B2: IDIndex range and knn time_us < every other engine's on SYN5, MZB and HSM at every |O|", func(t paperTab, c *claim) {
		c.less(t, t.of("B2", "SYN5", "MZB", "HSM"), "range_time_us", "IDIndex", 1, others("IDIndex")...)
		c.less(t, t.of("B2", "SYN5", "MZB", "HSM"), "knn_time_us", "IDIndex", 1, others("IDIndex")...)
	}},
	{"B2: IDIndex range_mem_mb >= 10x IDModel's and CIndex's on SYN5, MZB and HSM", func(t paperTab, c *claim) {
		c.less(t, t.of("B2", "SYN5", "MZB", "HSM"), "range_mem_mb", "IDModel", 0.1, "IDIndex")
		c.less(t, t.of("B2", "SYN5", "MZB", "HSM"), "range_mem_mb", "CIndex", 0.1, "IDIndex")
	}},
	{"B2: on CPH IPTree and VIPTree range and knn time_us > IDModel's and CIndex's at every |O|", func(t paperTab, c *claim) {
		for _, g := range []string{"IDModel", "CIndex"} {
			c.less(t, t.of("B2", "CPH"), "range_time_us", g, 1, "IPTree", "VIPTree")
			c.less(t, t.of("B2", "CPH"), "knn_time_us", g, 1, "IPTree", "VIPTree")
		}
	}},
	{"B3: range_time_us grows with r for every engine on SYN5", func(t paperTab, c *claim) {
		for _, e := range bundle.EngineNames {
			c.grows(t, t.of("B3", "SYN5"), e, "range_time_us")
		}
	}},
	{"B3: on CPH all five engines' range_time_us within 25% of each other at every r", func(t paperTab, c *claim) {
		for _, e := range bundle.EngineNames {
			c.less(t, t.of("B3", "CPH"), "range_time_us", e, 1.25, others(e)...)
		}
	}},
	{"B3: IDModel and CIndex range_mem_mb < IDIndex's, IPTree's and VIPTree's at every dataset and r", func(t paperTab, c *claim) {
		c.less(t, t.of("B3"), "range_mem_mb", "IDModel", 1, "IDIndex", "IPTree", "VIPTree")
		c.less(t, t.of("B3"), "range_mem_mb", "CIndex", 1, "IDIndex", "IPTree", "VIPTree")
	}},
	{"B4: IDIndex knn_time_us grows least from k=1 to k=100 on SYN5", func(t paperTab, c *claim) {
		ss := t.of("B4", "SYN5")
		growth := func(e string) float64 {
			return t.v(ss[len(ss)-1], e, "knn_time_us") - t.v(ss[0], e, "knn_time_us")
		}
		for _, e := range others("IDIndex") {
			c.want(growth("IDIndex") < growth(e), "IDIndex +%.4g, %s +%.4g", growth("IDIndex"), e, growth(e))
		}
	}},
	{"B4: on CPH IPTree and VIPTree knn_time_us > IDModel's and CIndex's at every k", func(t paperTab, c *claim) {
		c.less(t, t.of("B4", "CPH"), "knn_time_us", "IDModel", 1, "IPTree", "VIPTree")
		c.less(t, t.of("B4", "CPH"), "knn_time_us", "CIndex", 1, "IPTree", "VIPTree")
	}},
	{"B5: IDIndex spd_time_us < IDModel's and CIndex's at every dataset and s2t", func(t paperTab, c *claim) {
		c.less(t, t.of("B5"), "spd_time_us", "IDIndex", 1, "IDModel", "CIndex")
	}},
	{"B5: IDIndex spd_nvd < 28 at every dataset and s2t", func(t paperTab, c *claim) {
		for _, s := range t.of("B5") {
			v := t.v(s, "IDIndex", "spd_nvd")
			c.want(v < 28, "%s: %.4g", s.name(""), v)
		}
	}},
	{"B5: VIPTree spd_time_us within 10x of IDIndex's on MZB and HSM at every s2t", func(t paperTab, c *claim) {
		c.less(t, t.of("B5", "MZB", "HSM"), "spd_time_us", "VIPTree", 10, "IDIndex")
	}},
	{"B5: IPTree spd_time_us between VIPTree's and IDModel's and CIndex's at every dataset and s2t", func(t paperTab, c *claim) {
		c.less(t, t.of("B5"), "spd_time_us", "VIPTree", 1, "IPTree")
		c.less(t, t.of("B5"), "spd_time_us", "IPTree", 1, "IDModel", "CIndex")
	}},
	{"B5: VIPTree's spd_time_us lead over IDModel is largest on MZB", func(t paperTab, c *claim) {
		lead := func(ds string) float64 {
			var m, v float64
			for _, s := range t.of("B5", ds) {
				m += t.v(s, "IDModel", "spd_time_us")
				v += t.v(s, "VIPTree", "spd_time_us")
			}
			return m / v
		}
		for _, ds := range queryDatasets {
			c.want(ds == "MZB" || lead("MZB") > lead(ds), "MZB %.4gx, %s %.4gx", lead("MZB"), ds, lead(ds))
		}
	}},
	{"B6: IDIndex range_mem_mb grows SYN5- < SYN5 < SYN5+", func(t paperTab, c *claim) {
		c.grows(t, t.of("B6"), "IDIndex", "range_mem_mb")
	}},
	{"B6: IDModel range_mem_mb flat across SYN5-, SYN5, SYN5+", func(t paperTab, c *claim) {
		c.flat(t, t.of("B6"), "IDModel", "range_mem_mb")
	}},
	{"B6: IPTree and VIPTree range_time_us climb most from SYN5- to SYN5+", func(t paperTab, c *claim) {
		ss := t.of("B6")
		climb := func(e string) float64 {
			return t.v(ss[len(ss)-1], e, "range_time_us") / t.v(ss[0], e, "range_time_us")
		}
		for _, tree := range []string{"IPTree", "VIPTree"} {
			for _, e := range []string{"IDModel", "IDIndex", "CIndex"} {
				c.want(climb(tree) > climb(e), "%s %.4gx, %s %.4gx", tree, climb(tree), e, climb(e))
			}
		}
	}},
	{"B6: IDModel and CIndex spd_nvd grow SYN5- < SYN5 < SYN5+", func(t paperTab, c *claim) {
		c.grows(t, t.of("B6"), "IDModel", "spd_nvd")
		c.grows(t, t.of("B6"), "CIndex", "spd_nvd")
	}},
	{"B7: every engine's range_time_us on SYN50 >= 10x SYN5's", func(t paperTab, c *claim) {
		s0, s := t.of("B7", "SYN50")[0], t.of("B7", "SYN5")[0]
		for _, e := range bundle.EngineNames {
			a, b := t.v(s0, e, "range_time_us"), t.v(s, e, "range_time_us")
			c.want(a >= 10*b, "%s: SYN50 %.4g, SYN5 %.4g", e, a, b)
		}
	}},
	{"B7: IDModel range and knn time_us on MZBD at least 3x faster than on MZB0", func(t paperTab, c *claim) {
		s0, sd := t.of("B7", "MZB0")[0], t.of("B7", "MZBD")[0]
		for _, m := range []string{"range_time_us", "knn_time_us"} {
			a, b := t.v(s0, "IDModel", m), t.v(sd, "IDModel", m)
			c.want(3*b <= a, "%s: MZB0 %.4g, MZBD %.4g", m, a, b)
		}
	}},
	{"B7: IDIndex range_mem_mb grows MZB0 < MZB < MZBD", func(t paperTab, c *claim) {
		c.grows(t, t.of("B7", "MZB0", "MZB", "MZBD"), "IDIndex", "range_mem_mb")
	}},
	{"SPDQ: IDModel spd_nvd equals CIndex's in every row", func(t paperTab, c *claim) {
		for _, s := range t.with(exec.SPDQ) {
			a, b := t.v(s, "IDModel", "spd_nvd"), t.v(s, "CIndex", "spd_nvd")
			c.want(a == b, "%s: IDModel %.4g, CIndex %.4g", s.name(""), a, b)
		}
	}},
	{"SPDQ: IPTree and VIPTree spd_time_us < IDModel's and CIndex's in every row", func(t paperTab, c *claim) {
		c.less(t, t.with(exec.SPDQ), "spd_time_us", "IPTree", 1, "IDModel", "CIndex")
		c.less(t, t.with(exec.SPDQ), "spd_time_us", "VIPTree", 1, "IDModel", "CIndex")
	}},
	{"SPDQ: VIPTree spd_time_us < IPTree's in every row", func(t paperTab, c *claim) {
		c.less(t, t.with(exec.SPDQ), "spd_time_us", "VIPTree", 1, "IPTree")
	}},
	{"IDIndex time_us < every other engine's for every query type in every row", func(t paperTab, c *claim) {
		for _, kind := range []exec.Kind{exec.RangeQ, exec.KNNQ, exec.SPDQ} {
			c.less(t, t.with(kind), kind.String()+"_time_us", "IDIndex", 1, others("IDIndex")...)
		}
	}},
}
