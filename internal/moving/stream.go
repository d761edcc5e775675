package moving

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
)

// ErrStreamClosed marks any operation on a Stream after Close.
var ErrStreamClosed = fmt.Errorf("moving: stream closed")

// monitor kinds.
const (
	kindRange = iota
	kindKNN
)

// StreamOptions configures a Stream. The zero value is usable: DefaultShards
// object shards, GOMAXPROCS batch workers, no reach summary.
type StreamOptions struct {
	// Shards is the number of object shards (<= 0 means DefaultShards).
	Shards int
	// Workers bounds the exec.Pool fan-out of ApplyBatch (<= 0 means
	// GOMAXPROCS). Events are identical for any value.
	Workers int
	// Reach optionally gates registration: partitions its summary proves
	// unreachable from the query point are skipped when deriving the
	// inverted index. Purely an optimization — the derived index, and
	// therefore every answer, is identical with or without it, because a
	// partition the summary rules out can hold no finite field entry.
	Reach *reach.Reach
}

// DefaultShards is the object-shard count of a zero-options Stream.
const DefaultShards = 8

// Stream is the sharded streaming continuous-query engine. It maintains the
// same per-query cached door-distance fields as Monitor but replaces the
// scan-all update path with a partition→query inverted index: an update
// touches only the queries for which the object's old or new partition is
// relevant (the query's host partition, or a partition with a finite field
// entry on some enter door). Object state is sharded by FNV hash so batched
// ingestion fans out across an exec.Pool, and the merged event stream is
// bit-identical to a serial evaluation for any shard/worker count (for
// update streams with strictly increasing timestamps; see ApplyBatch).
//
// Alongside continuous range monitors it supports standing kNN monitors and
// per-query subscriptions receiving incremental enter/leave deltas.
type Stream struct {
	sp   *indoor.Space
	rc   *reach.Reach
	pool exec.Pool
	nsh  int

	// mu guards queries, partQ, and closed. ApplyBatch/Remove hold it for
	// read (registration topology is frozen during a batch); Register,
	// Unregister, and Close hold it for write.
	mu      sync.RWMutex
	queries map[int32]*stQuery
	// partQ is the inverted index: partQ[P] lists the queries relevant to
	// partition P, ascending by query id.
	partQ  [][]*stQuery
	closed bool

	shards []streamShard
}

// streamShard owns the current positions of the objects hashed to it.
type streamShard struct {
	mu  sync.Mutex
	cur map[int32]Update
}

// stQuery is one standing monitor of a Stream.
type stQuery struct {
	qcore
	kind  int
	k     int                  // kindKNN only
	parts []indoor.PartitionID // relevant partitions (for unregister)

	// mu guards everything below. Batch folding locks at most one query at
	// a time, so query locks never nest.
	mu     sync.Mutex
	inside map[int32]bool    // kindRange: current result
	dists  map[int32]float64 // kindKNN: finite distance per known object
	top    []query.Neighbor  // kindKNN: current top-k, ascending (dist, id)
	inTop  map[int32]bool    // kindKNN: membership of top
	subs   []*Sub
}

// delta is one (query, update) evaluation produced by phase A of a batch
// and folded into query state by phase B.
type delta struct {
	q    *stQuery
	obj  int32
	idx  int32 // index in the batch: per-query fold order
	dist float64
	t    float64
	gone bool // object removed (Remove path)
}

// NewStream returns an empty streaming engine over a space.
func NewStream(sp *indoor.Space, opt StreamOptions) *Stream {
	nsh := opt.Shards
	if nsh <= 0 {
		nsh = DefaultShards
	}
	s := &Stream{
		sp:      sp,
		rc:      opt.Reach,
		pool:    exec.Pool{Workers: opt.Workers},
		nsh:     nsh,
		queries: make(map[int32]*stQuery),
		partQ:   make([][]*stQuery, len(sp.Partitions())),
		shards:  make([]streamShard, nsh),
	}
	for i := range s.shards {
		s.shards[i].cur = make(map[int32]Update)
	}
	return s
}

// shardOf hashes an object id to its shard (FNV-1a over the 4 id bytes).
func (s *Stream) shardOf(id int32) int {
	h := uint32(2166136261)
	x := uint32(id)
	for i := 0; i < 4; i++ {
		h ^= x & 0xff
		h *= 16777619
		x >>= 8
	}
	return int(h % uint32(s.nsh))
}

// relevantParts derives the query's slice of the inverted index from its
// door-distance field: the host partition, plus every partition with a
// finite field entry on some enter door. Any object whose distance to the
// query point is finite sits in such a partition (objDist is +Inf
// otherwise), so folding only touched queries loses no event. A reach
// summary, when configured, skips partitions proven unreachable from the
// host's leave doors — those can hold no finite entry, so the result is
// identical, just cheaper to derive on venues with closed-off wings.
func (s *Stream) relevantParts(q *qcore) []indoor.PartitionID {
	var from reach.From
	gated := false
	if s.rc != nil {
		from = s.rc.FromDoors(s.sp.Partition(q.vp).Leave, nil)
		gated = true
	}
	var out []indoor.PartitionID
	for v := range s.partQ {
		pid := indoor.PartitionID(v)
		if pid == q.vp {
			out = append(out, pid)
			continue
		}
		if gated && !from.CanReachPart(pid) {
			continue
		}
		for _, d := range s.sp.Partition(pid).Enter {
			if !math.IsInf(q.doorDist[d], 1) {
				out = append(out, pid)
				break
			}
		}
	}
	return out
}

// insertIndexed adds q to the index lists of its relevant partitions,
// keeping each list ascending by query id.
func (s *Stream) insertIndexed(q *stQuery) {
	for _, v := range q.parts {
		lst := s.partQ[v]
		i := sort.Search(len(lst), func(i int) bool { return lst[i].id >= q.id })
		lst = append(lst, nil)
		copy(lst[i+1:], lst[i:])
		lst[i] = q
		s.partQ[v] = lst
	}
}

// removeIndexed undoes insertIndexed.
func (s *Stream) removeIndexed(q *stQuery) {
	for _, v := range q.parts {
		lst := s.partQ[v]
		i := sort.Search(len(lst), func(i int) bool { return lst[i].id >= q.id })
		if i < len(lst) && lst[i] == q {
			s.partQ[v] = append(lst[:i], lst[i+1:]...)
		}
	}
}

// Register adds a continuous range monitor around p with radius r; objects
// already known are evaluated immediately and their enter events returned,
// ascending by object id. Fails with ErrDuplicateQuery / ErrNotIndoors
// (wrapped) like Monitor.Register.
func (s *Stream) Register(qid int32, p indoor.Point, r float64, t float64) ([]Event, error) {
	return s.RegisterCtx(context.Background(), qid, p, r, t)
}

// RegisterCtx is Register with the registration-time Dijkstra bounded by ctx.
func (s *Stream) RegisterCtx(ctx context.Context, qid int32, p indoor.Point, r float64, t float64) ([]Event, error) {
	return s.register(ctx, qid, p, kindRange, r, 0, t)
}

// RegisterKNN adds a standing k-nearest-neighbors monitor at p: its result
// is the k objects nearest to p by indoor walking distance, maintained
// incrementally as updates arrive. Initial enter events are returned
// ascending by object id. k must be >= 1.
func (s *Stream) RegisterKNN(qid int32, p indoor.Point, k int, t float64) ([]Event, error) {
	return s.RegisterKNNCtx(context.Background(), qid, p, k, t)
}

// RegisterKNNCtx is RegisterKNN with the registration-time Dijkstra bounded
// by ctx. A kNN monitor's distance field is unbounded (every reachable door
// is settled), so large venues may want a deadline here.
func (s *Stream) RegisterKNNCtx(ctx context.Context, qid int32, p indoor.Point, k int, t float64) ([]Event, error) {
	if k < 1 {
		return nil, fmt.Errorf("moving: knn monitor %d: k must be >= 1, got %d", qid, k)
	}
	return s.register(ctx, qid, p, kindKNN, math.Inf(1), k, t)
}

func (s *Stream) register(ctx context.Context, qid int32, p indoor.Point, kind int, r float64, k int, t float64) ([]Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStreamClosed
	}
	if _, dup := s.queries[qid]; dup {
		return nil, fmt.Errorf("%w: id %d", ErrDuplicateQuery, qid)
	}
	vp, ok := s.sp.HostPartition(p)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotIndoors, p)
	}
	field, err := distField(ctx, s.sp, p, vp, r)
	if err != nil {
		return nil, err
	}
	q := &stQuery{
		qcore: qcore{
			id:       qid,
			p:        p,
			pRef:     s.sp.Ref(vp, p),
			vp:       vp,
			r:        r,
			doorDist: field,
		},
		kind: kind,
		k:    k,
	}
	q.parts = s.relevantParts(&q.qcore)
	if kind == kindRange {
		q.inside = make(map[int32]bool)
	} else {
		q.dists = make(map[int32]float64)
		q.inTop = make(map[int32]bool)
	}
	events := s.initialEval(q, t)
	s.queries[qid] = q
	s.insertIndexed(q)
	return events, nil
}

// initialEval evaluates every known object against a fresh query, filling
// its result state and returning the enter events ascending by object id.
// Caller holds s.mu for write, so no batch is in flight.
func (s *Stream) initialEval(q *stQuery, t float64) []Event {
	type od struct {
		id int32
		d  float64
	}
	var cands []od
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id, u := range sh.cur {
			d := q.objDist(s.sp, u.Part, u.Loc)
			if !math.IsInf(d, 1) && d <= q.r {
				cands = append(cands, od{id, d})
			}
		}
		sh.mu.Unlock()
	}
	var events []Event
	if q.kind == kindRange {
		sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
		for _, c := range cands {
			q.inside[c.id] = true
			events = append(events, Event{Query: q.id, Object: c.id, Enter: true, T: t})
		}
		return events
	}
	tk := query.NewTopK(q.k, len(cands))
	for _, c := range cands {
		q.dists[c.id] = c.d
		tk.Offer(c.id, c.d)
	}
	q.top = tk.Results()
	ids := make([]int32, 0, len(q.top))
	for _, nb := range q.top {
		q.inTop[nb.ID] = true
		ids = append(ids, nb.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		events = append(events, Event{Query: q.id, Object: id, Enter: true, T: t})
	}
	return events
}

// Unregister removes a monitor, closing its subscriptions. It reports
// whether the id was registered.
func (s *Stream) Unregister(qid int32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[qid]
	if !ok {
		return false
	}
	delete(s.queries, qid)
	s.removeIndexed(q)
	q.mu.Lock()
	for _, sub := range q.subs {
		sub.closeLocked()
	}
	q.subs = nil
	q.mu.Unlock()
	return true
}

// NumQueries returns the number of registered monitors.
func (s *Stream) NumQueries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.queries)
}

// NumObjects returns the number of objects with a known position.
func (s *Stream) NumObjects() int {
	n := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		n += len(sh.cur)
		sh.mu.Unlock()
	}
	return n
}

// Result returns the object ids currently in monitor qid's result,
// ascending — the range membership, or the current top-k of a kNN monitor.
// Unknown ids return nil.
func (s *Stream) Result(qid int32) []int32 {
	s.mu.RLock()
	q, ok := s.queries[qid]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []int32
	if q.kind == kindRange {
		out = make([]int32, 0, len(q.inside))
		for id := range q.inside {
			out = append(out, id)
		}
	} else {
		out = make([]int32, 0, len(q.top))
		for _, nb := range q.top {
			out = append(out, nb.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Neighbors returns a kNN monitor's current result ascending by
// (distance, id), or nil for unknown or range monitors.
func (s *Stream) Neighbors(qid int32) []query.Neighbor {
	s.mu.RLock()
	q, ok := s.queries[qid]
	s.mu.RUnlock()
	if !ok || q.kind != kindKNN {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]query.Neighbor, len(q.top))
	copy(out, q.top)
	return out
}

// MonitorInfo describes one registered monitor.
type MonitorInfo struct {
	ID   int32        `json:"id"`
	Kind string       `json:"kind"` // "range" | "knn"
	P    indoor.Point `json:"p"`
	R    float64      `json:"r,omitempty"` // range only
	K    int          `json:"k,omitempty"` // knn only
	Size int          `json:"size"`        // current result cardinality
}

// Monitors lists the registered monitors ascending by id.
func (s *Stream) Monitors() []MonitorInfo {
	s.mu.RLock()
	qs := make([]*stQuery, 0, len(s.queries))
	for _, q := range s.queries {
		qs = append(qs, q)
	}
	s.mu.RUnlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	out := make([]MonitorInfo, 0, len(qs))
	for _, q := range qs {
		mi := MonitorInfo{ID: q.id, P: q.p}
		q.mu.Lock()
		if q.kind == kindRange {
			mi.Kind = "range"
			mi.R = q.r
			mi.Size = len(q.inside)
		} else {
			mi.Kind = "knn"
			mi.K = q.k
			mi.Size = len(q.top)
		}
		q.mu.Unlock()
		out = append(out, mi)
	}
	return out
}

// Apply absorbs a single update — ApplyBatch of one.
func (s *Stream) Apply(u Update) ([]Event, error) {
	return s.ApplyBatch([]Update{u})
}

// ApplyBatch absorbs a batch of position updates and returns the emitted
// membership events sorted by (T, query, object). The whole batch is
// validated up front; an invalid update rejects the batch with no state
// change. Updates fan out across the object shards through the exec.Pool
// (phase A: per-shard position writes and per-touched-query distance
// evaluations), then fold into per-query result state in batch order
// (phase B), so for update streams with strictly increasing timestamps the
// emitted events are bit-identical to applying the same updates one at a
// time on a single shard — for any shard count, worker count, or batch
// partitioning. Each object's updates land on one shard, preserving their
// relative order; each query folds its deltas by batch index; and the final
// sort key (T, query, object) is total because one update yields at most
// one event per query.
func (s *Stream) ApplyBatch(us []Update) ([]Event, error) {
	if len(us) == 0 {
		return nil, nil
	}
	for i := range us {
		if err := validateUpdate(s.sp, us[i]); err != nil {
			return nil, fmt.Errorf("moving: batch index %d: %w", i, err)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrStreamClosed
	}

	// Fan update indices out by object shard.
	byShard := make([][]int32, s.nsh)
	for i := range us {
		si := s.shardOf(us[i].ID)
		byShard[si] = append(byShard[si], int32(i))
	}
	active := make([]int, 0, s.nsh)
	for si := range byShard {
		if len(byShard[si]) > 0 {
			active = append(active, si)
		}
	}

	// Phase A: per-shard position writes + distance evaluation of every
	// touched query. Deltas carry the batch index so phase B can fold them
	// in batch order; no query state is touched yet.
	shardDeltas := make([][]delta, len(active))
	s.pool.Map(len(active), func(ai int, _ *query.Stats) error {
		Metrics.ShardInFlight.Add(1)
		defer Metrics.ShardInFlight.Add(-1)
		shardDeltas[ai] = s.shardApply(&s.shards[active[ai]], us, byShard[active[ai]])
		return nil
	})

	// Group deltas by query. (qid, batch index) is unique per delta — the
	// touched set is deduplicated per update — so this order is total.
	var all []delta
	for _, ds := range shardDeltas {
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].q.id != all[j].q.id {
			return all[i].q.id < all[j].q.id
		}
		return all[i].idx < all[j].idx
	})
	var groups [][]delta
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].q == all[lo].q {
			hi++
		}
		groups = append(groups, all[lo:hi])
		lo = hi
	}

	// Phase B: fold each query's deltas in batch order. Queries are
	// independent (each owns its result state behind its own mutex), so
	// groups run concurrently.
	groupEvents := make([][]Event, len(groups))
	s.pool.Map(len(groups), func(gi int, _ *query.Stats) error {
		groupEvents[gi] = groups[gi][0].q.fold(groups[gi])
		return nil
	})

	var events []Event
	for _, evs := range groupEvents {
		events = append(events, evs...)
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].T != events[j].T {
			return events[i].T < events[j].T
		}
		if events[i].Query != events[j].Query {
			return events[i].Query < events[j].Query
		}
		return events[i].Object < events[j].Object
	})

	Metrics.Batches.Add(1)
	Metrics.Updates.Add(int64(len(us)))
	Metrics.Events.Add(int64(len(events)))
	return events, nil
}

// shardApply runs phase A for one shard: write the shard's updates in batch
// order and evaluate each against the queries its old/new partitions touch.
func (s *Stream) shardApply(sh *streamShard, us []Update, idxs []int32) []delta {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []delta
	for _, i := range idxs {
		u := us[i]
		prev, known := sh.cur[u.ID]
		sh.cur[u.ID] = u
		newQ := s.partQ[u.Part]
		var oldQ []*stQuery
		if known && prev.Part != u.Part {
			oldQ = s.partQ[prev.Part]
		}
		// Merge the two qid-sorted lists, deduplicating queries relevant to
		// both partitions.
		touched := int64(0)
		a, b := 0, 0
		for a < len(newQ) || b < len(oldQ) {
			var q *stQuery
			switch {
			case b >= len(oldQ):
				q = newQ[a]
				a++
			case a >= len(newQ):
				q = oldQ[b]
				b++
			case newQ[a].id == oldQ[b].id:
				q = newQ[a]
				a++
				b++
			case newQ[a].id < oldQ[b].id:
				q = newQ[a]
				a++
			default:
				q = oldQ[b]
				b++
			}
			touched++
			out = append(out, delta{
				q:    q,
				obj:  u.ID,
				idx:  i,
				dist: q.objDist(s.sp, u.Part, u.Loc),
				t:    u.T,
			})
		}
		Metrics.Touched.Observe(touched)
	}
	return out
}

// Remove drops an object (it left the building), emitting leave events
// ascending by query id. Unknown objects return immediately with nil.
func (s *Stream) Remove(objID int32, t float64) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil
	}
	sh := &s.shards[s.shardOf(objID)]
	sh.mu.Lock()
	prev, known := sh.cur[objID]
	if known {
		delete(sh.cur, objID)
	}
	sh.mu.Unlock()
	if !known {
		return nil
	}
	var events []Event
	for _, q := range s.partQ[prev.Part] { // ascending by qid
		evs := q.fold([]delta{{q: q, obj: objID, t: t, gone: true}})
		events = append(events, evs...)
	}
	return events
}

// fold is phase B for one query: apply its deltas in batch order to the
// result state, emit membership events, and push them to subscribers.
func (q *stQuery) fold(ds []delta) []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	var evs []Event
	for i := range ds {
		d := &ds[i]
		if q.kind == kindRange {
			now := !d.gone && d.dist <= q.r
			was := q.inside[d.obj]
			switch {
			case now && !was:
				q.inside[d.obj] = true
				evs = append(evs, Event{Query: q.id, Object: d.obj, Enter: true, T: d.t})
			case !now && was:
				delete(q.inside, d.obj)
				evs = append(evs, Event{Query: q.id, Object: d.obj, Enter: false, T: d.t})
			}
			continue
		}
		evs = q.foldKNN(evs, d)
	}
	if len(evs) > 0 && len(q.subs) > 0 {
		q.pushLocked(evs)
	}
	return evs
}

// foldKNN applies one delta to a kNN monitor. The top-k is recomputed (an
// offer-order-independent scan of the known finite distances) only when the
// delta can actually change it: the object is currently in the top, the top
// is underfull, or the new distance beats the current k-th bound under the
// (distance, id) tie-break.
func (q *stQuery) foldKNN(evs []Event, d *delta) []Event {
	finite := !d.gone && !math.IsInf(d.dist, 1)
	_, had := q.dists[d.obj]
	if finite {
		q.dists[d.obj] = d.dist
	} else if had {
		delete(q.dists, d.obj)
	} else {
		return evs // unreachable object was already absent: nothing changes
	}
	if !q.inTop[d.obj] {
		if !finite {
			return evs // a non-member got farther: the top is untouched
		}
		if len(q.top) >= q.k {
			kth := q.top[len(q.top)-1]
			if d.dist > kth.Dist || (d.dist == kth.Dist && d.obj > kth.ID) {
				return evs // cannot displace the k-th under the tie-break
			}
		}
	}
	tk := query.NewTopK(q.k, len(q.dists))
	for id, dd := range q.dists {
		tk.Offer(id, dd)
	}
	newTop := tk.Results()
	newSet := make(map[int32]bool, len(newTop))
	for _, nb := range newTop {
		newSet[nb.ID] = true
	}
	var leaves, enters []int32
	for id := range q.inTop {
		if !newSet[id] {
			leaves = append(leaves, id)
		}
	}
	for id := range newSet {
		if !q.inTop[id] {
			enters = append(enters, id)
		}
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	sort.Slice(enters, func(i, j int) bool { return enters[i] < enters[j] })
	for _, id := range leaves {
		evs = append(evs, Event{Query: q.id, Object: id, Enter: false, T: d.t})
	}
	for _, id := range enters {
		evs = append(evs, Event{Query: q.id, Object: id, Enter: true, T: d.t})
	}
	q.top = newTop
	q.inTop = newSet
	return evs
}

// Close shuts the stream down: every subscription is closed and every
// subsequent operation fails with ErrStreamClosed (reads return empty).
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, q := range s.queries {
		q.mu.Lock()
		for _, sub := range q.subs {
			sub.closeLocked()
		}
		q.subs = nil
		q.mu.Unlock()
	}
	s.queries = make(map[int32]*stQuery)
	s.partQ = make([][]*stQuery, len(s.partQ))
}

// Closed reports whether Close has run.
func (s *Stream) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Sub is one subscription to a monitor's event deltas. Events are pushed
// non-blocking into a buffered channel: a subscriber that falls behind loses
// events (counted by Dropped) rather than stalling ingestion. The channel is
// closed when the subscription, its monitor, or the stream closes.
type Sub struct {
	q  *stQuery
	ch chan Event
	// mu guards dropped and closed; it nests inside q.mu (pushes and
	// teardown hold q.mu first).
	mu      sync.Mutex
	dropped int64
	closed  bool
}

// Subscribe attaches a delta subscription to monitor qid with the given
// channel buffer (minimum 1).
func (s *Stream) Subscribe(qid int32, buf int) (*Sub, error) {
	if buf < 1 {
		buf = 1
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrStreamClosed
	}
	q, ok := s.queries[qid]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("moving: subscribe: unknown monitor %d", qid)
	}
	sub := &Sub{q: q, ch: make(chan Event, buf)}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.subs = append(q.subs, sub)
	return sub, nil
}

// Events is the subscription's delta channel; it is closed when the
// subscription ends.
func (sub *Sub) Events() <-chan Event { return sub.ch }

// Dropped returns how many events were discarded because the subscriber's
// buffer was full.
func (sub *Sub) Dropped() int64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.dropped
}

// Close detaches the subscription and closes its channel. Safe to call more
// than once and concurrently with event pushes.
func (sub *Sub) Close() {
	q := sub.q
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, x := range q.subs {
		if x == sub {
			q.subs = append(q.subs[:i], q.subs[i+1:]...)
			break
		}
	}
	sub.closeLocked()
}

// closeLocked closes the channel once; callers hold q.mu, which serializes
// against pushLocked so there is no send-on-closed-channel race.
func (sub *Sub) closeLocked() {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if !sub.closed {
		sub.closed = true
		close(sub.ch)
	}
}

// pushLocked delivers events to every subscriber; caller holds q.mu.
func (q *stQuery) pushLocked(evs []Event) {
	for _, sub := range q.subs {
		sub.mu.Lock()
		if sub.closed {
			sub.mu.Unlock()
			continue
		}
		for _, e := range evs {
			select {
			case sub.ch <- e:
			default:
				sub.dropped++
			}
		}
		sub.mu.Unlock()
	}
}
