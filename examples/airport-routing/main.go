// Indoor routing at the airport, including a one-way security checkpoint:
// the directional-door scenario of the paper's Figure 1 (door d12). The
// program extends the CPH-style venue with a security door that can only be
// crossed landside -> airside and shows that the shortest route back differs
// from the route in.
package main

import (
	"context"
	"fmt"
	"log"

	"indoorsq"
)

func main() {
	// A compact terminal: landside hall, security room, airside hall, gates.
	//
	//	y=30 +--gate A--+--gate B--+--gate C--+
	//	y=20 +--------- airside hall ---------+
	//	     |  (security: one-way in)  exit  |
	//	y=10 +--------- landside hall --------+
	//	y=0  +--------------------------------+
	b := indoorsq.NewBuilder("terminal", 1)
	land := b.AddHallway(0, indoorsq.RectPoly(indoorsq.R(0, 0, 90, 10)))
	security := b.AddRoom(0, indoorsq.RectPoly(indoorsq.R(10, 10, 30, 20)))
	exitCorr := b.AddRoom(0, indoorsq.RectPoly(indoorsq.R(60, 10, 80, 20)))
	air := b.AddHallway(0, indoorsq.RectPoly(indoorsq.R(0, 20, 90, 30)))
	gates := make([]indoorsq.PartitionID, 3)
	for i := range gates {
		x0 := float64(i) * 30
		gates[i] = b.AddRoom(0, indoorsq.RectPoly(indoorsq.R(x0, 30, x0+30, 40)))
	}

	// Security: landside -> checkpoint -> airside, strictly one-way.
	dIn := b.AddDoor(indoorsq.Pt(20, 10), 0)
	b.ConnectOneWay(dIn, land, security)
	dScreen := b.AddDoor(indoorsq.Pt(20, 20), 0)
	b.ConnectOneWay(dScreen, security, air)
	// Exit corridor: airside -> exit -> landside, also one-way.
	dOut := b.AddDoor(indoorsq.Pt(70, 20), 0)
	b.ConnectOneWay(dOut, air, exitCorr)
	dRelease := b.AddDoor(indoorsq.Pt(70, 10), 0)
	b.ConnectOneWay(dRelease, exitCorr, land)
	// Gates open onto the airside hall.
	for i, g := range gates {
		d := b.AddDoor(indoorsq.Pt(float64(i)*30+15, 30), 0)
		b.ConnectBoth(d, air, g)
	}

	sp, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	router := indoorsq.NewVIPTree(sp, 0)
	router.SetObjects(nil)

	checkin := indoorsq.At(5, 5, 0) // landside, near the entrance
	gateC := indoorsq.At(75, 35, 0) // gate C
	var st indoorsq.Stats

	out, err := router.SPD(checkin, gateC, &st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("check-in -> gate C: %.1fm via doors %v\n", out.Dist, out.Doors)

	back, err := router.SPD(gateC, checkin, &st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gate C -> check-in: %.1fm via doors %v\n", back.Dist, back.Doors)

	if diff := back.Dist - out.Dist; diff != 0 {
		fmt.Printf("asymmetric distances: the one-way doors make the return %.1fm longer\n", diff)
	}

	// The same routing works on the full benchmark airport.
	info, err := indoorsq.Dataset("CPH")
	if err != nil {
		log.Fatal(err)
	}
	w := indoorsq.NewWorkload(info.Space, 1)
	pairs, err := w.SPDPairs(context.Background(), 1500, 1)
	if err != nil {
		log.Fatal(err)
	}
	cph := indoorsq.NewVIPTree(info.Space, info.Gamma)
	cph.SetObjects(nil)
	path, err := cph.SPD(pairs[0].P, pairs[0].Q, &st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPH: %.0fm route crossing %d doors (target s2t 1500m)\n",
		path.Dist, len(path.Doors))
}
