package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"indoorsq/internal/indoor"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
)

// bootTimes splits one set-up into its steps.
type bootTimes struct {
	total    time.Duration
	spacegen time.Duration
	build    time.Duration
	write    time.Duration
	load     time.Duration // tenant.New from the snapshots
	register time.Duration // ingest: monitors registered over HTTP
	seed     time.Duration // ingest: the one update pass placing every object
	artifact int64         // snapshot bytes over all venues
	graph    int64         // door-graph bytes over all venues
}

// monitorDef is one standing range monitor of the ingest workload.
type monitorDef struct {
	id int32
	p  indoor.Point
	r  float64
}

// system is one booted serving stack: the tier, its HTTP server on a
// loopback listener, and the ingest workload's registered state.
type system struct {
	def    *workloadDef
	tier   *tenant.Tier
	tracer *tracer
	srv    *http.Server
	served chan error
	addr   string // loopback host:port
	base   string // "http://" + addr
	times  bootTimes

	monitors []monitorDef
	seedPos  []updateReport // ingest: every object's position after set-up
}

// updateReport is one position report as sent on the wire (no partition:
// the server resolves it).
type updateReport struct {
	ID    int32   `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int16   `json:"floor"`
	T     float64 `json:"t"`
}

func (u updateReport) point() indoor.Point { return indoor.At(u.X, u.Y, u.Floor) }

// boot builds the workload's venues the production way — generate, build
// the bundle, write the snapshot, start tenant.New from the snapshot —
// serves the tier over loopback HTTP through the tracing middleware, and
// performs the workload's HTTP set-up (pins, monitors, seeding).
func boot(def *workloadDef, dir string, seed int64) (*system, error) {
	start := time.Now()
	s := &system{def: def}
	var specs []tenant.VenueSpec
	spaces := make([]*indoor.Space, len(def.venues))
	t := time.Now()
	for i, v := range def.venues {
		sp, err := spacegen.Generate(v.genSeed, v.params)
		if err != nil {
			return nil, fmt.Errorf("generate venue %s: %w", v.id, err)
		}
		spaces[i] = sp
	}
	s.times.spacegen = time.Since(t)

	bundles := make([]*bundle.Bundle, len(def.venues))
	t = time.Now()
	for i, v := range def.venues {
		b, err := bundle.Build(v.id, spaces[i], bundle.Options{Engines: v.engines, Gamma: 4})
		if err != nil {
			return nil, fmt.Errorf("build venue %s: %w", v.id, err)
		}
		bundles[i] = b
		s.times.graph += b.Graph.SizeBytes()
	}
	s.times.build = time.Since(t)

	t = time.Now()
	for i, v := range def.venues {
		path := filepath.Join(dir, v.id+".isq")
		if err := bundles[i].WriteFile(path, true); err != nil {
			return nil, fmt.Errorf("write snapshot %s: %w", v.id, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		s.times.artifact += fi.Size()
		specs = append(specs, tenant.VenueSpec{
			ID: v.id, Snapshot: path, Objects: v.objects, ObjectSeed: v.genSeed*31 + 7,
		})
	}
	s.times.write = time.Since(t)

	t = time.Now()
	tier, err := tenant.New(specs, tenant.Options{Seed: 1})
	if err != nil {
		return nil, err
	}
	s.times.load = time.Since(t)
	s.tier = tier

	if err := s.serve(); err != nil {
		return nil, err
	}
	if err := s.setupHTTP(seed); err != nil {
		s.close()
		return nil, err
	}
	s.times.total = time.Since(start)
	return s, nil
}

// serve starts the tenant HTTP handler, wrapped in the tracing middleware,
// on a loopback listener.
func (s *system) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.tracer = newTracer(server.NewTenantServer(s.tier).Handler())
	s.srv = &http.Server{Handler: s.tracer, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.addr = ln.Addr().String()
	s.base = "http://" + s.addr
	return nil
}

// close stops the server and waits until it has stopped serving.
func (s *system) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.served
	s.srv = nil
}

// setupHTTP performs the workload's set-up requests: engine pins for
// wide_range, monitor registration and the seeding pass for ingest.
func (s *system) setupHTTP(seed int64) error {
	c := &http.Client{}
	defer c.CloseIdleConnections()
	for _, v := range s.def.venues {
		for op, engine := range s.def.pins {
			body := fmt.Sprintf(`{"op":%q,"engine":%q}`, op, engine)
			if err := postJSON(c, s.base+"/v1/venues/"+v.id+"/route", []byte(body)); err != nil {
				return fmt.Errorf("pin %s: %w", op, err)
			}
		}
	}
	if !s.def.ingest() {
		return nil
	}
	v := s.def.venues[0]
	sp := s.space(v.id)
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	t := time.Now()
	for i := 0; i < s.def.monitors; i++ {
		m := monitorDef{id: int32(i + 1), p: spacegen.Point(sp, rng), r: s.def.monitorR + float64(i%5)*2}
		s.monitors = append(s.monitors, m)
		body := fmt.Sprintf(`{"id":%d,"kind":"range","x":%s,"y":%s,"floor":%d,"r":%s}`,
			m.id, ftoa(m.p.X), ftoa(m.p.Y), m.p.Floor, ftoa(m.r))
		if err := postJSON(c, s.base+"/v1/venues/"+v.id+"/monitors", []byte(body)); err != nil {
			return fmt.Errorf("register monitor %d: %w", m.id, err)
		}
	}
	s.times.register = time.Since(t)

	objs := spacegen.Objects(sp, moverSeed(seed), s.def.movers)
	s.seedPos = make([]updateReport, len(objs))
	for i, o := range objs {
		s.seedPos[i] = updateReport{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Floor: o.Loc.Floor}
	}
	t = time.Now()
	const seedBatch = 500
	for lo := 0; lo < len(s.seedPos); lo += seedBatch {
		hi := min(lo+seedBatch, len(s.seedPos))
		body, err := json.Marshal(map[string]any{"updates": s.seedPos[lo:hi]})
		if err != nil {
			return err
		}
		if err := postJSON(c, s.base+"/v1/venues/"+v.id+"/updates", body); err != nil {
			return fmt.Errorf("seed objects: %w", err)
		}
	}
	s.times.seed = time.Since(t)
	return nil
}

// moverSeed derives the motion stream's seed; spacegen.MotionStream starts
// from spacegen.Objects with the same seed, which the seeding pass sends.
func moverSeed(seed int64) int64 { return seed*104729 + 3 }

// space returns the serving space of one venue.
func (s *system) space(id string) *indoor.Space {
	v, _ := s.tier.Venue(id)
	return v.Space
}

// postJSON sends one set-up request and requires a 2xx answer.
func postJSON(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return errors.New(resp.Status + ": " + string(bytes.TrimSpace(msg)))
	}
	return nil
}
