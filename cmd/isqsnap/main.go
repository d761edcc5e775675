// Command isqsnap builds, inspects, and verifies serving snapshots — the
// offline half of the snapshot workflow: construct the expensive engine
// materializations once, ship the artifact to a fleet, and let every
// replica boot (or SIGHUP-swap) from it in milliseconds.
//
// Usage:
//
//	isqsnap build -o venue.isq [-dataset CPH] [-engines IDModel,IDIndex,CIndex,IPTree,VIPTree]
//	              [-compact] [-no-warm]
//	isqsnap inspect venue.isq
//	isqsnap verify [-queries 32] [-seed 1] venue.isq
//
// build constructs the named dataset and every selected engine, then writes
// one artifact (atomically). Construction runs over GOMAXPROCS workers (the
// GOMAXPROCS environment variable sets it); the artifact is byte-identical
// for every value. inspect prints the header and per-section
// layout without loading anything. verify fully loads the artifact, then
// rebuilds the same engines from the loaded space and checks a query sample
// answers bit-identically — the strongest offline guarantee that a replica
// booting this artifact serves exactly what a cold build would.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"indoorsq/internal/dataset"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/workload"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: isqsnap build|inspect|verify [flags] [file]")
	os.Exit(2)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		out     = fs.String("o", "", "output artifact path (required)")
		ds      = fs.String("dataset", "CPH", "benchmark dataset")
		names   = fs.String("engines", strings.Join(bundle.EngineNames, ","), "engines to materialize")
		compact = fs.Bool("compact", false, "build IDINDEX with float32 matrices")
		noWarm  = fs.Bool("no-warm", false, "omit the warm distance-cache pages")
	)
	fs.Parse(args)
	if *out == "" {
		log.Fatal("isqsnap build: -o is required")
	}
	info, err := dataset.Build(*ds)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	b, err := bundle.Build(info.Name, info.Space, bundle.Options{
		Engines: strings.Split(*names, ","),
		Gamma:   info.Gamma,
		Compact: *compact,
	})
	if err != nil {
		log.Fatal(err)
	}
	buildDur := time.Since(start)
	start = time.Now()
	if err := b.WriteFile(*out, !*noWarm); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("built %s (%v) in %v, wrote %.1f MB to %s in %v",
		info.Name, b.EngineList(), buildDur.Round(time.Millisecond),
		float64(st.Size())/1e6, *out, time.Since(start).Round(time.Millisecond))
	log.Printf("fingerprint %016x, format v%d", b.Fingerprint, snapshot.Version)
}

// tagNames maps section tags to display names for inspect.
var tagNames = map[uint32]string{
	snapshot.TagMeta:       "meta",
	snapshot.TagSpace:      "space",
	snapshot.TagDoorGraph:  "doorgraph",
	snapshot.TagIDIndex:    "idindex",
	snapshot.TagCIndex:     "cindex",
	snapshot.TagIPTree:     "iptree",
	snapshot.TagVIPTree:    "viptree",
	snapshot.TagReachSpace: "reach/space",
	snapshot.TagReachGraph: "reach/graph",
	snapshot.TagDistCache:  "distcache",
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("isqsnap inspect: exactly one artifact path")
	}
	path := fs.Arg(0)
	r, err := snapshot.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("%s: %.1f MB, format v%d, fingerprint %016x\n",
		path, float64(st.Size())/1e6, r.FormatVersion(), r.Fingerprint())
	fmt.Printf("%-12s %12s  %s\n", "SECTION", "BYTES", "CRC")
	for _, tag := range r.Tags() {
		name := tagNames[tag]
		if name == "" {
			name = fmt.Sprintf("tag%d", tag)
		}
		crc := "ok"
		if _, err := r.Section(tag); err != nil {
			crc = err.Error()
		}
		fmt.Printf("%-12s %12d  %s\n", name, r.SectionSize(tag), crc)
	}
	if meta, err := r.Section(snapshot.TagMeta); err == nil {
		venue := meta.Str()
		gamma := meta.I64()
		n := meta.Int()
		names := make([]string, 0, n)
		for i := 0; i < n && meta.Err() == nil; i++ {
			names = append(names, meta.Str())
		}
		if meta.Err() == nil {
			fmt.Printf("venue %q, gamma %d, engines %v\n", venue, gamma, names)
		}
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var (
		queries = fs.Int("queries", 32, "query sample size per engine and type")
		seed    = fs.Int64("seed", 1, "workload seed")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("isqsnap verify: exactly one artifact path")
	}
	start := time.Now()
	loaded, err := bundle.LoadFile(fs.Arg(0))
	if err != nil {
		log.Fatalf("FAIL load: %v", err)
	}
	log.Printf("loaded %s (%v) in %v", loaded.Name, loaded.EngineList(), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	rebuilt, err := bundle.Build(loaded.Name, loaded.Space, bundle.Options{
		Engines: loaded.EngineList(),
		Gamma:   loaded.Gamma,
	})
	if err != nil {
		log.Fatalf("FAIL rebuild: %v", err)
	}
	log.Printf("rebuilt reference engines in %v", time.Since(start).Round(time.Millisecond))

	gen := workload.New(loaded.Space, *seed)
	objs := gen.Objects(256)
	pts := gen.Points(*queries)
	mismatches := 0
	for _, name := range loaded.EngineList() {
		le, re := loaded.Engines[name], rebuilt.Engines[name]
		le.SetObjects(objs)
		re.SetObjects(objs)
		var st query.Stats
		for _, p := range pts {
			lr, lerr := le.Range(p, 50, &st)
			rr, rerr := re.Range(p, 50, &st)
			if !sameErr(lerr, rerr) || !sameI32(lr, rr) {
				mismatches++
				log.Printf("MISMATCH %s Range at (%g,%g,f%d)", name, p.X, p.Y, p.Floor)
			}
			lk, lerr := le.KNN(p, 10, &st)
			rk, rerr := re.KNN(p, 10, &st)
			if !sameErr(lerr, rerr) || !sameNN(lk, rk) {
				mismatches++
				log.Printf("MISMATCH %s KNN at (%g,%g,f%d)", name, p.X, p.Y, p.Floor)
			}
		}
		// SPD pairs are consecutive sample points, so most paths cross
		// partitions and floors; an unreachable pair must fail alike.
		for i := 0; i < len(pts)/2; i++ {
			p, q := pts[i], pts[(i+1)%len(pts)]
			lp, lerr := le.SPD(p, q, &st)
			rp, rerr := re.SPD(p, q, &st)
			if !sameErr(lerr, rerr) ||
				(lerr == nil && (math.Float64bits(lp.Dist) != math.Float64bits(rp.Dist) || !sameDoors(lp.Doors, rp.Doors))) {
				mismatches++
				log.Printf("MISMATCH %s SPD", name)
			}
		}
		log.Printf("verified %s", name)
	}
	if mismatches > 0 {
		log.Fatalf("FAIL: %d mismatches", mismatches)
	}
	log.Printf("PASS: all engines answer bit-identically to a cold rebuild")
}

// sameErr holds when both calls succeeded or both failed the same way:
// unreachable, or some other error.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, query.ErrUnreachable) == errors.Is(b, query.ErrUnreachable)
}

func sameI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameNN(a, b []query.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

func sameDoors(a, b []indoor.DoorID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
