// Mall services: the Sec. 7 extensions working together — keyword search
// ("find the nearest café with wifi"), keyword-aware routing ("pass an ATM
// and a pharmacy on the way to the exit"), opening hours (the pharmacy
// closes at night), and uncertain locations (a phone seen by indoor
// positioning with a 5m error radius).
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

	// Tag a reproducible object workload with service keywords.
	w := indoorsq.NewWorkload(sp, 99)
	plain := w.Objects(300)
	words := [][]string{
		{"cafe"}, {"cafe", "wifi"}, {"atm"}, {"pharmacy"}, {"gate"}, {"shop"},
	}
	tagged := make([]indoorsq.TaggedObject, len(plain))
	for i, o := range plain {
		tagged[i] = indoorsq.TaggedObject{Object: o, Words: words[i%len(words)]}
	}

	base := indoorsq.NewIDModel(sp)
	kw := indoorsq.NewKeywordIndex(base, sp, tagged)

	me := w.Points(1)[0]
	fmt.Printf("standing at (%.0f, %.0f)\n", me.X, me.Y)

	// Nearest café with wifi.
	nn, err := kw.BooleanKNN(ctx, me, 1, nil, "cafe", "wifi")
	if err != nil {
		log.Fatal(err)
	}
	if len(nn) > 0 {
		fmt.Printf("nearest cafe+wifi: object %d at %.0fm\n", nn[0].ID, nn[0].Dist)
	}

	// Route to a far point passing an ATM and a pharmacy.
	target := w.Points(2)[1]
	route, err := kw.Route(ctx, me, target, nil, "atm", "pharmacy")
	if err != nil {
		log.Fatal(err)
	}
	plainRoute, err := kw.Route(ctx, me, target, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("errand route: %.0fm visiting objects %v (plain route %.0fm)\n",
		route.Path.Dist, route.Visits, plainRoute.Path.Dist)

	// Opening hours: a service corridor closes at night.
	sch := indoorsq.NewSchedule()
	sch.Set(0, indoorsq.OpenInterval{Open: 6, Close: 23})
	night := indoorsq.NewTemporalIDModel(indoorsq.NewIDModel(sp), sch, 2.5)
	night.SetObjects(plain)
	ids, err := night.Range(me, info.DefaultR, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POIs in range at 02:30 with door 0 closed: %d\n", len(ids))

	// Uncertain location: a phone with 5m positioning error.
	host, _ := sp.HostPartition(plain[0].Loc)
	ux := indoorsq.NewUncertainIndex(indoorsq.NewCIndex(sp), sp, []indoorsq.UncertainObject{
		{ID: 42, Center: plain[0].Loc, Radius: 5, Part: host},
	}, 0)
	res, err := ux.ProbRange(ctx, me, info.DefaultR, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	if len(res) > 0 {
		fmt.Printf("phone 42 within %.0fm with probability %.0f%%\n",
			info.DefaultR, res[0].Value*100)
	} else {
		fmt.Printf("phone 42 not within %.0fm (probability below 20%%)\n", info.DefaultR)
	}
}
