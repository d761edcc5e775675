// Package walker simulates pedestrians: agents pick random destinations,
// walk the engine-computed shortest indoor paths at a fixed speed, and emit
// timestamped position samples — a realistic update stream for the
// moving-object monitor and the trajectory analytics (and the kind of
// probabilistic positioning streams the paper's related work consumes).
//
// Agents walk the door polyline of each path; within decomposed (convex)
// partitions the straight legs stay indoors by construction. Venues with
// concave partitions are supported too: samples falling into a different
// partition than expected are resolved by host lookup.
package walker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/workload"
)

// Sample is one emitted position observation.
type Sample struct {
	ID   int32
	Loc  indoor.Point
	Part indoor.PartitionID
	T    float64
}

// agent is one walking pedestrian.
type agent struct {
	id      int32
	waypts  []indoor.Point // current walk: position, door points, destination
	seg     int            // index of the current leg (waypts[seg] -> waypts[seg+1])
	offset  float64        // meters progressed along the current leg
	pos     indoor.Point
	arrived bool
}

// Sim drives a set of agents over one venue.
type Sim struct {
	sp    *indoor.Space
	eng   query.Engine
	gen   *workload.Generator
	rng   *rand.Rand
	speed float64
	now   float64
	ags   []*agent
}

// New creates a simulation with the given number of agents walking at
// speed meters/second, routed by eng.
func New(sp *indoor.Space, eng query.Engine, agents int, speed float64, seed int64) (*Sim, error) {
	if agents <= 0 || speed <= 0 {
		return nil, fmt.Errorf("walker: need positive agents and speed")
	}
	s := &Sim{
		sp:    sp,
		eng:   eng,
		gen:   workload.New(sp, seed),
		rng:   rand.New(rand.NewSource(seed ^ 0x5deece66d)),
		speed: speed,
	}
	for i := 0; i < agents; i++ {
		a := &agent{id: int32(i), pos: s.gen.Point(), arrived: true}
		s.ags = append(s.ags, a)
	}
	return s, nil
}

// Now returns the simulation clock.
func (s *Sim) Now() float64 { return s.now }

// newWalk routes agent a to a fresh random destination. Interruptions
// (cancelled context, expired deadline, exhausted budget) surface
// immediately instead of being burned as failed attempts.
func (s *Sim) newWalk(ctx context.Context, a *agent) error {
	for try := 0; try < 8; try++ {
		dest := s.gen.Point()
		path, err := query.SPD(ctx, s.eng, a.pos, dest, nil)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, query.ErrBudgetExhausted) {
				return err
			}
			continue
		}
		a.waypts = a.waypts[:0]
		a.waypts = append(a.waypts, a.pos)
		for _, d := range path.Doors {
			a.waypts = append(a.waypts, s.sp.DoorPoint(d))
		}
		a.waypts = append(a.waypts, dest)
		a.seg = 0
		a.offset = 0
		a.arrived = false
		return nil
	}
	return fmt.Errorf("walker: agent %d cannot find a reachable destination", a.id)
}

// legLen returns the length of the agent's current leg, treating cross-floor
// staircase legs as the stair length.
func (s *Sim) legLen(a *agent) float64 {
	p, q := a.waypts[a.seg], a.waypts[a.seg+1]
	if p.Floor != q.Floor {
		// Staircase traversal: walk its fixed length.
		for _, vid := range s.sp.OnFloor(p.Floor) {
			v := s.sp.Partition(vid)
			if v.Kind == indoor.Staircase && v.Poly.Contains(p.XY()) && v.Poly.Contains(q.XY()) {
				return v.StairLength
			}
		}
		return p.XY().Dist(q.XY()) // fallback
	}
	return p.XY().Dist(q.XY())
}

// Step advances the simulation by dt seconds and returns one sample per
// agent. Agents reaching their destination immediately start a new walk.
// The per-agent re-routing SPDQs run under ctx, and ctx is polled between
// agents, so one tick over a large crowd can be cancelled or
// deadline-bounded mid-sweep.
func (s *Sim) Step(ctx context.Context, dt float64) ([]Sample, error) {
	s.now += dt
	out := make([]Sample, 0, len(s.ags))
	for _, a := range s.ags {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a.arrived {
			if err := s.newWalk(ctx, a); err != nil {
				return nil, err
			}
		}
		budget := s.speed * dt
		for budget > 0 && !a.arrived {
			leg := s.legLen(a)
			remain := leg - a.offset
			if budget < remain {
				a.offset += budget
				budget = 0
			} else {
				budget -= remain
				a.seg++
				a.offset = 0
				if a.seg >= len(a.waypts)-1 {
					a.arrived = true
				}
			}
		}
		a.pos = s.position(a)
		part, ok := s.sp.HostPartition(a.pos)
		if !ok {
			// Numerical edge (e.g. exactly on a wall): snap to the leg's
			// start waypoint, which is always a valid indoor point.
			a.pos = a.waypts[a.seg]
			part, ok = s.sp.HostPartition(a.pos)
			if !ok {
				return nil, fmt.Errorf("walker: agent %d off the map at %v", a.id, a.pos)
			}
		}
		out = append(out, Sample{ID: a.id, Loc: a.pos, Part: part, T: s.now})
	}
	return out, nil
}

// position interpolates the agent's current coordinates.
func (s *Sim) position(a *agent) indoor.Point {
	if a.arrived {
		return a.waypts[len(a.waypts)-1]
	}
	p, q := a.waypts[a.seg], a.waypts[a.seg+1]
	leg := s.legLen(a)
	if leg <= 0 {
		return q
	}
	t := a.offset / leg
	if p.Floor != q.Floor {
		// On the stairs: report the door being approached, switching floors
		// halfway.
		if t < 0.5 {
			return p
		}
		return q
	}
	return indoor.At(p.X+(q.X-p.X)*t, p.Y+(q.Y-p.Y)*t, p.Floor)
}
