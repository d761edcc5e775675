package main

import (
	"fmt"
	"time"

	"indoorsq/internal/moving"
	"indoorsq/internal/obs"
	"indoorsq/internal/snapshot/bundle"
)

// perLayer fills the traced run's metrics. Client-side numbers come from
// phase B, whose requests carry traceHeader, so the middleware's sums
// cover exactly the same requests.
func perLayer(res *result, rep *report, def *workloadDef, s *system, seqs [][]request, runs []clientRun,
	sch schedule, before, after counters, boots []bootTimes) error {
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sums := s.tracer.snapshot()

	// Client view of phase B, per request kind.
	var client [numKinds]time.Duration
	var count [numKinds]int64
	var routed [kindSPD + 1][]int64
	for i := range routed {
		routed[i] = make([]int64, len(bundle.EngineNames))
	}
	for _, r := range runs {
		for _, smp := range r.samples {
			if smp.phase != phaseB {
				continue
			}
			client[smp.kind] += smp.lat
			count[smp.kind]++
			if smp.kind <= kindSPD && smp.engine >= 0 {
				routed[smp.kind][smp.engine]++
			}
		}
	}
	for k := kindRange; k <= kindSPD; k++ {
		var total int64
		for _, n := range routed[k] {
			total += n
		}
		for e, name := range bundle.EngineNames {
			set("tenant.route_share."+kindNames[k]+"."+name, ratio(routed[k][e], total), "ratio")
		}
	}

	// Layer means per request of the kinds that carry the workload's
	// operations: the three query kinds, or update batches for ingest.
	kinds := []int{kindRange, kindKNN, kindSPD}
	if def.ingest() {
		kinds = []int{kindUpdate}
	}
	var n, traced int64
	var clientSum, handler, engine time.Duration
	var stages [numStages]time.Duration
	var bytes, queries, doors, work int64
	for _, k := range kinds {
		n += count[k]
		clientSum += client[k]
		sm := &sums[k]
		traced += sm.requests
		handler += sm.handler
		engine += sm.engine
		bytes += sm.bytes
		queries += sm.queries
		doors += sm.doors
		work += sm.work
		for i := range stages {
			stages[i] += sm.stages[i]
		}
	}
	if n == 0 || traced != n {
		return fmt.Errorf("traced phase: clients completed %d requests, middleware traced %d", n, traced)
	}
	per := func(d time.Duration) float64 { return us(d) / float64(n) }
	perQuery := func(v int64) float64 {
		if queries == 0 {
			return 0
		}
		return float64(v) / float64(queries)
	}
	clientUs, handlerUs, engineUs := per(clientSum), per(handler), per(engine)
	set("http.transport_us", clientUs-handlerUs, "us")
	set("server.response_bytes", float64(bytes)/float64(n), "bytes")
	set("engine.total_us", engineUs, "us")
	other := engineUs
	for i := 0; i < numStages; i++ {
		v := per(stages[i])
		other -= v
		set("engine."+obs.Stage(i).String()+"_us", v, "us")
	}
	set("engine.other_us", other, "us")
	set("engine.visited_doors", perQuery(doors), "count")
	set("engine.work_bytes", perQuery(work), "bytes")
	set("indoor.distcache_hit_ratio", ratio(after.cacheHits-before.cacheHits,
		after.cacheHits-before.cacheHits+after.cacheMisses-before.cacheMisses), "ratio")
	set("doorgraph.settled_per_query", perQuery(after.settled-before.settled), "count")
	set("reach.prune_hit_ratio", ratio(after.pruneHits-before.pruneHits,
		after.pruneHits-before.pruneHits+after.pruneSkips-before.pruneSkips), "ratio")

	var hostUs, applyUs float64
	if def.ingest() {
		host, apply, batches, err := replayIngest(s, seqs, runs)
		if err != nil {
			return fmt.Errorf("twin replay: %w", err)
		}
		if batches > 0 {
			hostUs, applyUs = us(host)/float64(batches), us(apply)/float64(batches)
		}
	}
	set("indoor.host_lookup_us", hostUs, "us")
	set("moving.apply_us", applyUs, "us")
	set("moving.touched_p50", float64(moving.Metrics.Touched.Quantile(0.50)), "count")
	set("moving.touched_p95", float64(moving.Metrics.Touched.Quantile(0.95)), "count")
	set("moving.events_per_update", ratio(after.events-before.events, after.updates-before.updates), "count")
	readUs := 0.0
	if rd := sums[kindRead]; rd.requests > 0 {
		readUs = us(rd.handler) / float64(rd.requests)
	}
	set("server.monitor_read_us", readUs, "us")
	selfUs := handlerUs - engineUs - hostUs - applyUs
	set("server.self_us", selfUs, "us")

	// Set-up steps (medians over the run's set-ups) and resident sizes.
	step := func(f func(b bootTimes) time.Duration) float64 {
		xs := make([]float64, len(boots))
		for i, b := range boots {
			xs[i] = f(b).Seconds()
		}
		return median(xs)
	}
	set("setup.spacegen_s", step(func(b bootTimes) time.Duration { return b.spacegen }), "s")
	set("setup.bundle_build_s", step(func(b bootTimes) time.Duration { return b.build }), "s")
	set("setup.snapshot_write_s", step(func(b bootTimes) time.Duration { return b.write }), "s")
	set("setup.snapshot_load_s", step(func(b bootTimes) time.Duration { return b.load }), "s")
	set("setup.monitor_register_s", step(func(b bootTimes) time.Duration { return b.register }), "s")
	set("setup.seed_s", step(func(b bootTimes) time.Duration { return b.seed }), "s")
	set("setup.artifact_mb", float64(boots[len(boots)-1].artifact)/mb, "MB")
	sizes := make(map[string]int64)
	var cacheBytes int64
	for _, id := range s.tier.VenueIDs() {
		v, _ := s.tier.Venue(id)
		for name, e := range v.Engines {
			sizes[name] += e.SizeBytes()
		}
		cacheBytes += v.Space.DistCache().SizeBytes()
	}
	for _, name := range bundle.EngineNames {
		set("engine.size_mb."+name, float64(sizes[name])/mb, "MB")
	}
	set("indoor.distcache_mb", float64(cacheBytes)/mb, "MB")
	set("doorgraph.size_mb", float64(s.times.graph)/mb, "MB")

	// Traced-run report: layer self-time means, their share of the mean
	// client latency, and the tracing overhead on throughput.
	layers := []layerShare{{Layer: "http.transport", MeanUs: clientUs - handlerUs}, {Layer: "server.self", MeanUs: selfUs}}
	if def.ingest() {
		layers = append(layers, layerShare{Layer: "indoor.host_lookup", MeanUs: hostUs}, layerShare{Layer: "moving.apply", MeanUs: applyUs})
	} else {
		for i := 0; i < numStages; i++ {
			layers = append(layers, layerShare{Layer: "engine." + obs.Stage(i).String(), MeanUs: per(stages[i])})
		}
		layers = append(layers, layerShare{Layer: "engine.other", MeanUs: other})
	}
	accounted := 0.0
	for i := range layers {
		layers[i].Share = layers[i].MeanUs / clientUs
		accounted += max(layers[i].MeanUs, 0)
	}
	rep.Layers = layers
	rep.ClientMeanUs = clientUs
	rep.AccountedShare = accounted / clientUs
	untraced := throughput(def, runs, phaseA, sch.a)
	tracedThr := throughput(def, runs, phaseB, sch.b)
	rep.TraceOverhead = untraced/tracedThr - 1
	set("trace.client_us", clientUs, "us")
	set("trace.accounted_share", rep.AccountedShare, "ratio")
	set("trace.throughput_untraced_ops_s", untraced, "1/s")
	set("trace.throughput_traced_ops_s", tracedThr, "1/s")
	set("trace.overhead_share", rep.TraceOverhead, "ratio")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayBatches caps how many phase-B update batches the twin replay
// times; their means settle long before that.
const replayBatches = 1000

// replayIngest splits the traced phase's update handling into host lookup
// and stream apply: a twin stream holding the same monitors is brought to
// the state the server's stream had when phase B began, then the update
// batches the clients sent in phase B (the first replayBatches of them)
// are replayed through Space.HostPartition and moving.Stream.ApplyBatch,
// clients interleaved.
func replayIngest(s *system, seqs [][]request, runs []clientRun) (host, apply time.Duration, batches int, err error) {
	sp := s.space(s.def.venues[0].id)
	twin := moving.NewStream(sp, moving.StreamOptions{})
	defer twin.Close()
	for _, m := range s.monitors {
		if _, err := twin.Register(m.id, m.p, m.r, 0); err != nil {
			return 0, 0, 0, err
		}
	}
	reports := sortedReports(lastPositions(s.seedPos, seqs, sentCounts(runs, true)))
	var buf []moving.Update
	for lo := 0; lo < len(reports); lo += 500 {
		if buf, err = hostParts(sp, reports[lo:min(lo+500, len(reports))], buf); err != nil {
			return 0, 0, 0, err
		}
		if _, err := twin.ApplyBatch(buf); err != nil {
			return 0, 0, 0, err
		}
	}
	for i := 0; batches < replayBatches; i++ {
		more := false
		for c, r := range runs {
			j := r.bStart + i
			if r.bStart < 0 || j >= r.sent {
				continue
			}
			more = true
			rq := &seqs[c][j%len(seqs[c])]
			if rq.kind != kindUpdate {
				continue
			}
			t := time.Now()
			if buf, err = hostParts(sp, rq.updates, buf); err != nil {
				return 0, 0, 0, err
			}
			t2 := time.Now()
			if _, err := twin.ApplyBatch(buf); err != nil {
				return 0, 0, 0, err
			}
			host += t2.Sub(t)
			apply += time.Since(t2)
			batches++
		}
		if !more {
			break
		}
	}
	return host, apply, batches, nil
}
