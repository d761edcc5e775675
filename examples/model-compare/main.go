// Model/index selection: builds all five model/indexes over a chosen
// benchmark dataset and prints construction cost plus per-query-type timing,
// ending with the paper's rule-of-thumb recommendation (Sec. 6,
// "Summary of Findings").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"indoorsq"
)

func main() {
	name := flag.String("dataset", "CPH", "benchmark dataset (see indoorsq.DatasetNames)")
	flag.Parse()

	info, err := indoorsq.Dataset(*name)
	if err != nil {
		log.Fatal(err)
	}
	sp := info.Space
	stats := sp.SpaceStats(info.Gamma)
	fmt.Printf("%s: %d partitions, %d doors, %d crucial partitions\n\n",
		*name, stats.Partitions, stats.Doors, stats.Crucial)

	objs := indoorsq.NewWorkload(sp, 11).Objects(1000)
	pts := indoorsq.NewWorkload(sp, 12).Points(10)
	pairs, err := indoorsq.NewWorkload(sp, 13).SPDPairs(context.Background(), info.DefaultS2T, 10)
	if err != nil {
		log.Fatal(err)
	}

	builders := []struct {
		name  string
		build func() indoorsq.Engine
	}{
		{"IDModel", func() indoorsq.Engine { return indoorsq.NewIDModel(sp) }},
		{"IDIndex", func() indoorsq.Engine { return indoorsq.NewIDIndex(sp) }},
		{"CIndex", func() indoorsq.Engine { return indoorsq.NewCIndex(sp) }},
		{"IPTree", func() indoorsq.Engine { return indoorsq.NewIPTree(sp, info.Gamma) }},
		{"VIPTree", func() indoorsq.Engine { return indoorsq.NewVIPTree(sp, info.Gamma) }},
	}

	fmt.Printf("%-8s %10s %10s %12s %12s %12s\n",
		"engine", "build", "size", "RQ avg", "kNN avg", "SPDQ avg")
	for _, bld := range builders {
		start := time.Now()
		eng := bld.build()
		buildTime := time.Since(start)
		eng.SetObjects(objs)

		rq := timeQueries(len(pts), func(i int) error {
			_, err := eng.Range(pts[i], info.DefaultR, nil)
			return err
		})
		knn := timeQueries(len(pts), func(i int) error {
			_, err := eng.KNN(pts[i], 10, nil)
			return err
		})
		spd := timeQueries(len(pairs), func(i int) error {
			_, err := eng.SPD(pairs[i].P, pairs[i].Q, nil)
			return err
		})
		fmt.Printf("%-8s %10v %8.2fMB %12v %12v %12v\n",
			bld.name, buildTime.Round(time.Microsecond),
			float64(eng.SizeBytes())/1e6, rq, knn, spd)
	}

	fmt.Println("\nrule of thumb (paper Sec. 6):")
	fmt.Println("  small spaces / few doors      -> IDIndex (fastest, memory-hungry)")
	fmt.Println("  routing, crucial partitions   -> VIPTree")
	fmt.Println("  everything else               -> IDModel (cheap build, balanced)")
}

func timeQueries(n int, fn func(i int) error) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			log.Fatal(err)
		}
	}
	return (time.Since(start) / time.Duration(n)).Round(time.Microsecond)
}
