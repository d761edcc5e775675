// Command isqserve runs the indoor LBS HTTP backend: a tier of one or more
// venues, each with any subset of the five engines loaded side by side
// behind a cost-based router.
//
// Usage:
//
//	isqserve [-addr :8080] [-venues CPH=CPH] [-engines IDModel,VIPTree]
//	         [-objects 1000] [-seed 1] [-route-pin ENGINE]
//	         [-query-timeout 0] [-max-visited-doors 0] [-max-work-mb 0]
//	         [-read-timeout 30s] [-read-header-timeout 5s] [-idle-timeout 2m]
//	         [-debug-addr ""]
//
// -venues is a comma-separated list of id=source entries, where source is a
// dataset name (CPH), gen:<seed> (a generated venue), or snap:<path> (a
// snapshot artifact built offline with isqsnap). Every venue is seeded with
// -objects random POIs drawn from -seed and routes each query class and
// parameter band to the engine a paired explore found fastest; -route-pin
// ENGINE pins every venue's router instead (the
// deterministic override). Plain isqserve serves the CPH dataset as the one
// venue "CPH".
//
// Endpoints (GET unless noted, JSON unless noted), per venue:
//
//	/v1/venues                                   venue listing
//	/v1/venues/{id}/info
//	/v1/venues/{id}/range?x=&y=&floor=&r=[&engine=]
//	/v1/venues/{id}/knn?x=&y=&floor=&k=[&engine=]
//	/v1/venues/{id}/spd?x=&y=&floor=&x2=&y2=&floor2=[&engine=]
//	/v1/venues/{id}/partitions?floor=
//	/v1/venues/{id}/trace?op=range|knn|spd&...   per-stage span breakdown of one query
//	/v1/venues/{id}/route                        decision table + evidence (POST pins)
//	POST /v1/venues/{id}/swap                    load a snapshot and publish it atomically
//	/v1/venues/{id}/metrics                      plain-text counters, latency quantiles, layer gauges
//	/v1/venues/{id}/monitors                     list (POST registers a range/knn monitor)
//	DELETE /v1/venues/{id}/monitors/{mid}
//	/v1/venues/{id}/monitors/{mid}/result
//	/v1/venues/{id}/monitors/{mid}/stream        ndjson enter/leave deltas
//	POST /v1/venues/{id}/updates                 batched moving-object positions
//
// On a one-venue server the unprefixed paths /v1/info, /v1/range, /v1/knn,
// /v1/route (= spd), /v1/partitions, /v1/trace, POST /v1/swap, /metrics,
// /v1/monitors... and POST /v1/updates are aliases for that venue; with
// several venues they answer 404 naming the per-venue path.
//
// A snap: venue boots from its artifact instead of running the expensive
// in-process construction, and the artifact is then its reload path: a
// path-less POST .../swap and SIGHUP re-load it and publish it without
// dropping a request — the fleet-rollout primitive: rebuild once offline,
// SIGHUP every replica. SIGHUP reloads every snap: venue.
//
// -query-timeout bounds every query endpoint (an expired query answers
// 504); -max-visited-doors / -max-work-mb set the admission budget (an
// exhausted query answers 422 with its partial progress). The read/idle
// timeouts harden the listener itself against slow or stuck clients.
//
// -debug-addr, when non-empty, starts a second listener (keep it private —
// bind to localhost) serving net/http/pprof under /debug/pprof/ and expvar
// under /debug/vars, with every venue's metrics registry published under
// the "isq" expvar.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
)

// parseVenueSpecs parses the -venues flag: "id=CPH,id2=gen:7,id3=snap:x.isq".
// Every venue draws its POIs from seed.
func parseVenueSpecs(raw string, engines []string, objects int, seed int64) ([]tenant.VenueSpec, error) {
	var specs []tenant.VenueSpec
	for _, entry := range strings.Split(raw, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, src, ok := strings.Cut(entry, "=")
		if !ok || id == "" || src == "" {
			return nil, fmt.Errorf("bad venue entry %q (want id=dataset, id=gen:<seed>, or id=snap:<path>)", entry)
		}
		spec := tenant.VenueSpec{ID: id, Engines: engines, Objects: objects, ObjectSeed: seed}
		switch {
		case strings.HasPrefix(src, "snap:"):
			spec.Snapshot = strings.TrimPrefix(src, "snap:")
		case strings.HasPrefix(src, "gen:"):
			seed, err := strconv.ParseInt(strings.TrimPrefix(src, "gen:"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad venue entry %q: %v", entry, err)
			}
			spec.GenSeed = seed
			spec.GenParams = spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 3}
		default:
			spec.Dataset = src
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-venues has no venue entries")
	}
	return specs, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		venues   = flag.String("venues", "CPH=CPH", "comma-separated id=dataset|id=gen:<seed>|id=snap:<path> entries")
		names    = flag.String("engines", "IDModel,VIPTree", "engines to build")
		objects  = flag.Int("objects", 1000, "number of random POIs per venue")
		seed     = flag.Int64("seed", 1, "POI and router seed")
		routePin = flag.String("route-pin", "", "pin every venue's router to this engine (empty = route by cost)")

		queryTimeout = flag.Duration("query-timeout", 0, "per-query deadline on range/knn/spd (0 = unbounded)")
		maxDoors     = flag.Int("max-visited-doors", 0, "per-query door-expansion budget (0 = unbounded)")
		maxWorkMB    = flag.Float64("max-work-mb", 0, "per-query transient working-set budget in MB (0 = unbounded)")

		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")

		debugAddr = flag.String("debug-addr", "", "private listener for pprof + expvar (empty = disabled)")
	)
	flag.Parse()
	engines := strings.Split(*names, ",")

	specs, err := parseVenueSpecs(*venues, engines, *objects, *seed)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	tier, err := tenant.New(specs, tenant.Options{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("booted %d venues in %v", len(tier.VenueIDs()), time.Since(start).Round(time.Millisecond))
	for _, id := range tier.VenueIDs() {
		v, _ := tier.Venue(id)
		if *routePin != "" {
			if err := v.Router().Pin("", *routePin); err != nil {
				log.Fatalf("venue %s: %v", id, err)
			}
		}
		log.Printf("venue %s (origin %s, %d POIs, engines %v)", id, v.Origin, len(v.Objects), v.EngineList())
	}
	if *routePin != "" {
		log.Printf("routing pinned to %s for every venue and query class", *routePin)
	}

	srv := server.NewTenantServer(tier)
	if *queryTimeout > 0 {
		for _, ep := range []string{"range", "knn", "spd"} {
			srv.SetTimeout(ep, *queryTimeout)
		}
		log.Printf("query timeout: %v", *queryTimeout)
	}
	if *maxDoors > 0 || *maxWorkMB > 0 {
		bud := query.Budget{MaxVisitedDoors: *maxDoors, MaxWorkBytes: int64(*maxWorkMB * 1e6)}
		srv.SetBudget(bud)
		log.Printf("admission budget: maxVisitedDoors=%d maxWorkBytes=%d", bud.MaxVisitedDoors, bud.MaxWorkBytes)
	}

	// SIGHUP = reload every venue's snapshot artifact and publish it
	// atomically; queries in flight finish on the generation they loaded.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			for _, id := range tier.VenueIDs() {
				start := time.Now()
				v, err := tier.SwapSnapshot(id, "")
				if err != nil {
					log.Printf("SIGHUP reload of %s failed: %v", id, err)
					continue
				}
				log.Printf("SIGHUP reload: %s serving epoch %d after %v",
					id, v.Epoch(), time.Since(start).Round(time.Millisecond))
			}
		}
	}()

	if *debugAddr != "" {
		// The debug listener is opt-in and meant to stay private: pprof
		// exposes heap contents and expvar exposes command lines. It gets
		// its own mux so none of this leaks onto the public handler.
		expvar.Publish("isq", expvar.Func(func() any {
			out := make(map[string]any)
			for _, id := range tier.VenueIDs() {
				if v, ok := tier.Venue(id); ok {
					out[id] = v.Registry().Snapshot()
				}
			}
			return out
		}))
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		go func() {
			log.Printf("debug listener (pprof, expvar) on %s", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, dmux))
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
	}
	log.Printf("serving %d venues on %s", len(tier.VenueIDs()), *addr)
	log.Fatal(hs.ListenAndServe())
}
