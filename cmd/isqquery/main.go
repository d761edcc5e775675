// Command isqquery runs a single indoor spatial query against a benchmark
// dataset with a chosen engine — handy for exploring datasets and comparing
// engines by hand.
//
// Usage:
//
//	isqquery [-dataset CPH] [-engine VIPTree] [-objects 1000] [-seed 1] <cmd> [args]
//
// Commands:
//
//	rq   -x X -y Y [-floor F] -r R          range query
//	knn  -x X -y Y [-floor F] [-k 5]        k nearest neighbors
//	spd  -x X -y Y -x2 X2 -y2 Y2 [...]      shortest path + distance
//	rand -type rq|knn|spd [-n 3]            random query instances
//
// Every query runs through exec.Do, the validated path the server uses, so
// the inputs it answers 400 to exit non-zero here: k <= 0, a negative or
// NaN r, or a floor outside the int16 range.
//
// Example:
//
//	isqquery -dataset CPH -engine IDIndex knn -x 1000 -y 300 -k 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"indoorsq/internal/dataset"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/workload"
)

// floorFlag is a floor number parsed with the int16 range check the
// server's floor parameter applies, so -floor 65536 is an error rather
// than floor 0.
type floorFlag int16

func (f *floorFlag) String() string { return strconv.Itoa(int(*f)) }

func (f *floorFlag) Set(s string) error {
	v, err := strconv.ParseInt(s, 10, 16)
	if err != nil {
		return err
	}
	*f = floorFlag(v)
	return nil
}

// point registers -x, -y and -floor flags (with suffix and description
// prefix) on fs and returns a func reading the parsed point.
func point(fs *flag.FlagSet, suffix, what string) func() indoor.Point {
	x := fs.Float64("x"+suffix, 0, what+"x")
	y := fs.Float64("y"+suffix, 0, what+"y")
	var fl floorFlag
	fs.Var(&fl, "floor"+suffix, what+"floor")
	return func() indoor.Point { return indoor.At(*x, *y, int16(fl)) }
}

func main() {
	var (
		ds      = flag.String("dataset", "CPH", "benchmark dataset")
		engine  = flag.String("engine", "VIPTree", "engine: IDModel, IDIndex, CIndex, IPTree, VIPTree")
		objects = flag.Int("objects", 1000, "number of random objects")
		seed    = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	info, err := dataset.Build(*ds)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	eng, err := bundle.NewEngine(*engine, info.Space, bundle.Options{Gamma: info.Gamma})
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)
	gen := workload.New(info.Space, *seed)
	eng.SetObjects(gen.Objects(*objects))
	fmt.Printf("%s over %s: built in %v, %.1f MB\n",
		eng.Name(), info.Name, buildTime.Round(time.Millisecond), float64(eng.SizeBytes())/1e6)

	cmd := flag.Arg(0)
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var ops []exec.Op
	switch cmd {
	case "rq":
		p := point(fs, "", "")
		r := fs.Float64("r", info.DefaultR, "range radius (m)")
		fs.Parse(flag.Args()[1:])
		ops = []exec.Op{{Kind: exec.RangeQ, P: p(), R: *r}}
	case "knn":
		p := point(fs, "", "")
		k := fs.Int("k", 5, "k")
		fs.Parse(flag.Args()[1:])
		ops = []exec.Op{{Kind: exec.KNNQ, P: p(), K: *k}}
	case "spd":
		p := point(fs, "", "source ")
		q := point(fs, "2", "target ")
		fs.Parse(flag.Args()[1:])
		ops = []exec.Op{{Kind: exec.SPDQ, P: p(), Q: q()}}
	case "rand":
		typ := fs.String("type", "knn", "query type: rq, knn, spd")
		n := fs.Int("n", 3, "instances")
		fs.Parse(flag.Args()[1:])
		for i := 0; i < *n; i++ {
			switch *typ {
			case "rq":
				ops = append(ops, exec.Op{Kind: exec.RangeQ, P: gen.Point(), R: info.DefaultR})
			case "knn":
				ops = append(ops, exec.Op{Kind: exec.KNNQ, P: gen.Point(), K: 5})
			case "spd":
				prs, err := gen.SPDPairs(context.Background(), info.DefaultS2T, 1)
				if err != nil {
					log.Fatal(err)
				}
				ops = append(ops, exec.Op{Kind: exec.SPDQ, P: prs[0].P, Q: prs[0].Q})
			default:
				log.Fatalf("unknown random query type %q", *typ)
			}
		}
	default:
		log.Fatalf("unknown command %q (want rq, knn, spd, rand)", cmd)
	}
	for _, op := range ops {
		line, err := answer(eng, op)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(line)
	}
}

// answer runs op through exec.Do, the validated entry point every served
// query takes, and formats its result: an invalid op (k <= 0, negative or
// NaN r) fails with exec.ErrInvalidOp before any engine work.
func answer(eng query.Engine, op exec.Op) (string, error) {
	r := exec.Do(context.Background(), eng, op)
	if r.Err != nil {
		return "", fmt.Errorf("%s: %w", op.Kind, r.Err)
	}
	p, q := op.P, op.Q
	took := r.Elapsed.Round(time.Microsecond)
	switch op.Kind {
	case exec.RangeQ:
		return fmt.Sprintf("RQ((%.0f,%.0f,f%d), %.0fm): %d objects in %v (NVD %d)",
			p.X, p.Y, p.Floor, op.R, len(r.IDs), took, r.Stats.VisitedDoors), nil
	case exec.KNNQ:
		line := fmt.Sprintf("%dNN((%.0f,%.0f,f%d)) in %v:", op.K, p.X, p.Y, p.Floor, took)
		for _, n := range r.Neighbors {
			line += fmt.Sprintf(" #%d@%.1fm", n.ID, n.Dist)
		}
		return line, nil
	default:
		return fmt.Sprintf("SPD((%.0f,%.0f,f%d) -> (%.0f,%.0f,f%d)): %.1fm through %d doors in %v (NVD %d)",
			p.X, p.Y, p.Floor, q.X, q.Y, q.Floor,
			r.Path.Dist, len(r.Path.Doors), took, r.Stats.VisitedDoors), nil
	}
}
