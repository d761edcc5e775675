// Indoor tracking: continuous range monitoring over moving visitors and
// trajectory analytics over the symbolic stay records they produce — the
// moving-object workloads the paper's conclusion names as future work.
package main

import (
	"context"
	"fmt"
	"log"

	"indoorsq"
)

func main() {
	info, err := indoorsq.Dataset("CPH")
	if err != nil {
		log.Fatal(err)
	}
	sp := info.Space
	ctx := context.Background()

	// A geofence: alert whenever a visitor comes within 150m (indoor
	// walking distance) of the security desk.
	desk := indoorsq.NewWorkload(sp, 5).Points(1)[0]
	mon := indoorsq.NewMovingStream(sp, indoorsq.MovingStreamOptions{})
	if _, err := mon.Register(1, desk, 150, 0); err != nil {
		log.Fatal(err)
	}

	// Simulate 20 visitors walking shortest paths at 1.4 m/s, sampled once
	// per second for five minutes.
	router := indoorsq.NewIDIndex(sp)
	router.SetObjects(nil)
	sim, err := indoorsq.NewWalkerSim(sp, router, 20, 1.4, 42)
	if err != nil {
		log.Fatal(err)
	}
	var stays []indoorsq.PositionUpdate
	enters, leaves := 0, 0
	for t := 1; t <= 300; t++ {
		samples, err := sim.Step(ctx, 1)
		if err != nil {
			log.Fatal(err)
		}
		for _, smp := range samples {
			evs, err := mon.Apply(indoorsq.MovingUpdate{ID: smp.ID, Loc: smp.Loc, Part: smp.Part, T: smp.T})
			if err != nil {
				log.Fatal(err)
			}
			for _, e := range evs {
				if e.Enter {
					enters++
				} else {
					leaves++
				}
			}
			stays = append(stays, indoorsq.PositionUpdate{Obj: smp.ID, Part: smp.Part, T: smp.T})
		}
	}
	fmt.Printf("geofence: %d enter events, %d leave events, %d visitors currently inside\n",
		enters, leaves, len(mon.Result(1)))

	// Derive symbolic stay records from the update stream and analyze them.
	logData, err := indoorsq.TrackingLogFromUpdates(stays, 1)
	if err != nil {
		log.Fatal(err)
	}
	top := logData.TopVisited(0, 100, 3)
	fmt.Printf("most visited partitions: ")
	for _, v := range top {
		fmt.Printf("v%d(%d visits) ", v.Part, v.Visits)
	}
	fmt.Println()
	pairs, err := logData.Join(ctx, 0, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("co-located visitor pairs: %d\n", len(pairs))
	fmt.Printf("crowded partitions (>=2 simultaneous): %d\n", len(logData.Dense(0, 100, 2)))
}
