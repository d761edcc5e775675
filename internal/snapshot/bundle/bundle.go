// Package bundle composes per-package snapshot sections into one serving
// artifact: everything a replica needs to answer queries — the space, the
// CSR door graph, both reachability summaries, each selected engine's
// materialization, and optionally the warm door-pair distance-cache pages.
//
// Build constructs the state from scratch (the expensive path: all-pairs
// Dijkstra for IDINDEX, per-access-door sweeps for the trees); Write saves
// it; Load boots an equivalent state from the artifact, skipping every
// expensive pass. A loaded bundle answers bit-identically to a freshly built
// one — the round-trip suite and the differential corpus gate that claim.
package bundle

import (
	"bufio"
	"fmt"
	"os"
	"sort"

	"indoorsq/internal/cindex"
	"indoorsq/internal/doorgraph"
	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/iptree"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
	"indoorsq/internal/snapshot"
)

// EngineNames lists every engine a bundle can carry, in presentation order.
var EngineNames = []string{"IDModel", "IDIndex", "CIndex", "IPTree", "VIPTree"}

// Options configures what a bundle contains.
type Options struct {
	// Engines selects which engines to build/serve (default: all five).
	Engines []string
	// Gamma is the crucial-partition threshold for IP/VIP-TREE.
	Gamma int
	// Compact builds IDINDEX with float32 matrices.
	Compact bool
	// Workers bounds construction parallelism (<= 0: GOMAXPROCS). Results
	// are identical for every worker count.
	Workers int
	// WarmCache includes the door-pair distance-cache pages accumulated on
	// the build-side space, so a replica boots with the cache pre-filled.
	WarmCache bool
}

func (o Options) withDefaults() Options {
	if len(o.Engines) == 0 {
		o.Engines = append([]string(nil), EngineNames...)
	}
	return o
}

// Bundle is one complete serving state.
type Bundle struct {
	Name    string
	Space   *indoor.Space
	Graph   *doorgraph.Graph // nil when no engine needed it
	Engines map[string]query.Engine
	Gamma   int

	// ReachGraph condenses the built door graph (matrix-exact; adopted by
	// IDINDEX and the trees); ReachSpace the topological edge set (sound for
	// the online engines).
	ReachGraph *reach.Reach
	ReachSpace *reach.Reach

	// Provenance: Origin is "build" or "snapshot"; Fingerprint is the
	// space's topology hash; FormatVersion the snapshot format that carried
	// a loaded bundle (snapshot.Version for built ones).
	Origin        string
	Fingerprint   uint64
	FormatVersion uint32
}

// EngineList returns the bundle's engine names in canonical order.
func (b *Bundle) EngineList() []string {
	var out []string
	for _, n := range EngineNames {
		if _, ok := b.Engines[n]; ok {
			out = append(out, n)
		}
	}
	// Unknown names (future engines) go last, sorted.
	var extra []string
	for n := range b.Engines {
		found := false
		for _, k := range EngineNames {
			if n == k {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Build cold-constructs a bundle over a space: the door graph and both reach
// summaries once, then every selected engine through its ordinary
// constructor (NewEngine) — so a built bundle's engines are exactly what
// the paper evaluation measures.
func Build(name string, sp *indoor.Space, opt Options) (*Bundle, error) {
	opt = opt.withDefaults()
	b := &Bundle{
		Name:        name,
		Space:       sp,
		Engines:     make(map[string]query.Engine, len(opt.Engines)),
		Gamma:       opt.Gamma,
		Origin:      "build",
		Fingerprint: indoor.Fingerprint(sp),

		FormatVersion: snapshot.Version,
	}
	b.Graph = doorgraph.BuildWorkers(sp, opt.Workers)
	b.ReachGraph = reach.FromGraph(b.Graph, sp, opt.Workers)
	b.ReachSpace = reach.FromSpace(sp, nil, opt.Workers)
	for _, name := range opt.Engines {
		e, err := NewEngine(name, sp, opt)
		if err != nil {
			return nil, err
		}
		b.Engines[name] = e
	}
	return b, nil
}

// NewEngine cold-constructs one engine over a space through its ordinary
// constructor, honouring opt's Gamma, Compact and Workers; opt.Engines and
// opt.WarmCache are ignored. Build calls it once per selected engine.
func NewEngine(name string, sp *indoor.Space, opt Options) (query.Engine, error) {
	switch name {
	case "IDModel":
		return idmodel.New(sp), nil
	case "IDIndex":
		if opt.Compact {
			return idindex.NewCompact(sp), nil
		}
		return idindex.NewWorkers(sp, opt.Workers), nil
	case "CIndex":
		return cindex.New(sp), nil
	case "IPTree":
		return iptree.New(sp, iptree.Options{Gamma: opt.Gamma, Workers: opt.Workers}), nil
	case "VIPTree":
		return iptree.New(sp, iptree.Options{Gamma: opt.Gamma, VIP: true, Workers: opt.Workers}), nil
	}
	return nil, fmt.Errorf("bundle: unknown engine %q", name)
}

// Write streams the bundle to w as one snapshot file. warmCache includes the
// distance-cache pages currently filled on the bundle's space.
func (b *Bundle) Write(w *bufio.Writer, warmCache bool) error {
	sw := snapshot.NewWriter(w, b.Fingerprint)
	meta := sw.Begin(snapshot.TagMeta)
	meta.Str(b.Name)
	meta.I64(int64(b.Gamma))
	names := b.EngineList()
	meta.U64(uint64(len(names)))
	for _, n := range names {
		meta.Str(n)
	}

	b.Space.AppendTo(sw)
	if b.Graph != nil {
		b.Graph.AppendTo(sw)
	}
	if b.ReachGraph != nil {
		b.ReachGraph.AppendTo(sw, snapshot.TagReachGraph)
	}
	if b.ReachSpace != nil {
		b.ReachSpace.AppendTo(sw, snapshot.TagReachSpace)
	}
	for _, n := range names {
		switch e := b.Engines[n].(type) {
		case *idmodel.Model:
			// Rebuilt from the (warm) space on load; nothing to write.
		case *idindex.Index:
			e.AppendTo(sw)
		case *cindex.Index:
			e.AppendTo(sw)
		case *iptree.Tree:
			if n == "VIPTree" {
				e.AppendTo(sw, snapshot.TagVIPTree)
			} else {
				e.AppendTo(sw, snapshot.TagIPTree)
			}
		default:
			return fmt.Errorf("bundle: engine %q (%T) is not snapshotable", n, e)
		}
	}
	if warmCache {
		b.Space.DistCache().AppendTo(sw)
	}
	if err := sw.Close(); err != nil {
		return err
	}
	return w.Flush()
}

// WriteFile saves the bundle to path (atomically: temp file + rename).
func (b *Bundle) WriteFile(path string, warmCache bool) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := b.Write(bw, warmCache); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load boots a bundle from a parsed snapshot. Every engine the meta section
// names is reconstructed: section-backed engines load their matrices
// (skipping construction), IDModel rebuilds from the loaded space — against
// the warm distance cache when pages were shipped. The space fingerprint
// recomputed from the loaded space must match the header, which catches
// section/space mismatches even across separately produced files.
func Load(r *snapshot.Reader) (*Bundle, error) {
	meta, err := r.Section(snapshot.TagMeta)
	if err != nil {
		return nil, err
	}
	b := &Bundle{
		Name:          meta.Str(),
		Gamma:         int(meta.I64()),
		Engines:       make(map[string]query.Engine),
		Origin:        "snapshot",
		FormatVersion: r.FormatVersion(),
	}
	numEngines := meta.Int()
	if err := meta.Err(); err != nil {
		return nil, err
	}
	if numEngines < 0 || numEngines > 64 {
		return nil, fmt.Errorf("bundle: meta names %d engines", numEngines)
	}
	names := make([]string, numEngines)
	for i := range names {
		names[i] = meta.Str()
	}
	if err := meta.Err(); err != nil {
		return nil, err
	}

	sp, err := indoor.LoadSpace(r)
	if err != nil {
		return nil, err
	}
	b.Space = sp
	b.Fingerprint = indoor.Fingerprint(sp)
	if b.Fingerprint != r.Fingerprint() {
		return nil, fmt.Errorf("bundle: space fingerprint %016x does not match header %016x",
			b.Fingerprint, r.Fingerprint())
	}
	if err := sp.DistCache().LoadFrom(r); err != nil {
		return nil, err
	}
	if r.Has(snapshot.TagDoorGraph) {
		if b.Graph, err = doorgraph.LoadFrom(r); err != nil {
			return nil, err
		}
		if b.Graph.N != sp.NumDoors() {
			return nil, fmt.Errorf("bundle: door graph over %d doors, space has %d", b.Graph.N, sp.NumDoors())
		}
	}
	if r.Has(snapshot.TagReachGraph) {
		if b.ReachGraph, err = reach.LoadFrom(r, snapshot.TagReachGraph); err != nil {
			return nil, err
		}
	}
	if r.Has(snapshot.TagReachSpace) {
		if b.ReachSpace, err = reach.LoadFrom(r, snapshot.TagReachSpace); err != nil {
			return nil, err
		}
	}
	for _, n := range names {
		switch n {
		case "IDModel":
			b.Engines[n] = idmodel.New(sp)
		case "IDIndex":
			if b.ReachGraph == nil {
				return nil, fmt.Errorf("bundle: IDIndex section requires the graph reach summary")
			}
			e, err := idindex.LoadFrom(r, sp, b.ReachGraph)
			if err != nil {
				return nil, err
			}
			b.Engines[n] = e
		case "CIndex":
			if b.ReachSpace == nil {
				return nil, fmt.Errorf("bundle: CIndex section requires the space reach summary")
			}
			e, err := cindex.LoadFrom(r, sp, b.ReachSpace)
			if err != nil {
				return nil, err
			}
			b.Engines[n] = e
		case "IPTree", "VIPTree":
			if b.ReachGraph == nil {
				return nil, fmt.Errorf("bundle: %s section requires the graph reach summary", n)
			}
			tag := uint32(snapshot.TagIPTree)
			if n == "VIPTree" {
				tag = snapshot.TagVIPTree
			}
			e, err := iptree.LoadFrom(r, tag, sp, b.ReachGraph)
			if err != nil {
				return nil, err
			}
			b.Engines[n] = e
		default:
			return nil, fmt.Errorf("bundle: meta names unknown engine %q", n)
		}
	}
	return b, nil
}

// LoadFile boots a bundle from a snapshot file.
func LoadFile(path string) (*Bundle, error) {
	r, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	return Load(r)
}
