package moving

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

// ErrStreamClosed marks any operation on a Stream after Close.
var ErrStreamClosed = fmt.Errorf("moving: stream closed")

// monitor kinds.
const (
	kindRange = iota
	kindKNN
)

// StreamOptions configures a Stream. The zero value is usable:
// DefaultShards object shards.
type StreamOptions struct {
	// Shards is the number of object shards (<= 0 means DefaultShards).
	Shards int
}

// DefaultShards is the object-shard count of a zero-options Stream.
const DefaultShards = 8

// Stream is the sharded streaming continuous-query engine. It maintains the
// same per-query cached door-distance fields as Monitor but replaces the
// scan-all update path with a partition→query inverted index: an update
// touches only the queries for which the object's old or new partition is
// relevant (the query's host partition, or a partition with a finite field
// entry on some enter door). Object positions are sharded by FNV hash, one
// lock per shard, so concurrent batches of different objects rarely
// contend; each batch is applied in one pass on its caller's goroutine, and
// its events are bit-identical to a serial evaluation for any shard count
// (for update streams with strictly increasing timestamps; see ApplyBatch).
//
// Concurrent batches (and Remove calls) must report disjoint objects. An
// update's position write and the folds of its changes into monitor state
// are not under one lock, so two concurrent batches that move the same
// object can fold out of order, and that object's membership in a monitor
// can stay stale until its next membership flip there.
//
// Alongside continuous range monitors it supports standing kNN monitors and
// per-query subscriptions receiving incremental enter/leave deltas.
type Stream struct {
	sp  *indoor.Space
	nsh int

	// mu guards queries, partQ, partMark and closed. ApplyBatch/Remove
	// hold it for read (registration topology is frozen during a batch);
	// Register, Unregister, and Close hold it for write.
	mu      sync.RWMutex
	queries map[int32]*stQuery
	// partQ is the inverted index: partQ[P] lists the queries relevant to
	// partition P with their door-distance rows (see partIndex).
	partQ  []partIndex
	closed bool
	// partMark is relevantParts' per-partition scratch, all false between
	// registrations.
	partMark []bool

	shards []streamShard

	// scratch holds *batchScratch values, the working memory of one batch
	// or removal, reused across batches so their buffers are not
	// reallocated.
	scratch sync.Pool
}

// partIndex is the inverted-index entry of one partition P: the monitors
// relevant to P, ascending by id, their ids in the same order, and beside
// them their door-distance rows. Row j, dd[j*n:(j+1)*n] with n =
// len(Partition(P).Enter), holds qs[j].doorDist at P's enter doors in
// Enter order, so evaluating an object in P reads one short contiguous run
// per monitor instead of n scattered loads from a field that spans every
// door of the venue. ids[j] == qs[j].id lets an update merge two entries
// without dereferencing a monitor.
type partIndex struct {
	qs  []*stQuery
	ids []int32
	dd  []float64
}

// row returns the door-distance row of qs[j]; n is the partition's enter
// door count.
func (x *partIndex) row(j, n int) []float64 { return x.dd[j*n : (j+1)*n] }

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

	// mu guards everything below. Folding locks one query at a time, so
	// query locks never nest.
	mu     sync.Mutex
	inside []int32           // kindRange: current result, ascending
	dists  map[int32]float64 // kindKNN: finite distance per known object
	top    []query.Neighbor  // kindKNN: current top-k, ascending (dist, id)
	inTop  map[int32]bool    // kindKNN: membership of top
	subs   []*Sub
}

// batchScratch is the pooled working memory of one batch: the new and the
// previous position of the update being applied, and the keys the batch's
// events are sorted by when they come out of order.
type batchScratch struct {
	now, was site
	keys     []keyedEvent
}

// getScratch returns a pooled batchScratch.
func (s *Stream) getScratch() *batchScratch {
	if sc, ok := s.scratch.Get().(*batchScratch); ok {
		return sc
	}
	return new(batchScratch)
}

// holds reports whether an object at distance d belongs in the monitor's
// result: within the radius for a range monitor, reachable at all for a
// kNN monitor (whose r is +Inf). initialEval, the change test and fold all
// decide membership through it.
func (q *stQuery) holds(d float64) bool {
	return !math.IsInf(d, 1) && d <= q.r
}

// changes reports whether an object moving from distance old to distance
// now can change the monitor's result. The monitor's state always records
// the object's last evaluated distance — a range monitor's inside holds
// obj iff holds(old), a kNN monitor's dists[obj] is old when finite — so a range
// result changes only when membership flips, and a kNN result only when
// the distance does (from +Inf to +Inf is no change).
func (q *stQuery) changes(old, now float64) bool {
	if q.kind == kindRange {
		return q.holds(old) != q.holds(now)
	}
	return old != now
}

// NewStream returns an empty streaming engine over a space.
func NewStream(sp *indoor.Space, opt StreamOptions) *Stream {
	nsh := opt.Shards
	if nsh <= 0 {
		nsh = DefaultShards
	}
	s := &Stream{
		sp:       sp,
		nsh:      nsh,
		queries:  make(map[int32]*stQuery),
		partQ:    make([]partIndex, len(sp.Partitions())),
		partMark: make([]bool, len(sp.Partitions())),
		shards:   make([]streamShard, nsh),
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
// finite field entry on some enter door, ascending. Any object whose
// distance to the query point is finite sits in such a partition (objDist
// is +Inf otherwise), so folding only touched queries loses no event. The
// partitions are marked off the finite entries' Enterable lists and read
// back in id order, one pass over the doors and one over the marks. Caller
// holds s.mu for write (partMark is shared).
func (s *Stream) relevantParts(q *qcore) []indoor.PartitionID {
	mark := s.partMark
	mark[q.vp] = true
	for d, v := range q.doorDist {
		if !math.IsInf(v, 1) {
			for _, p := range s.sp.Door(indoor.DoorID(d)).Enterable {
				mark[p] = true
			}
		}
	}
	var out []indoor.PartitionID
	for v, marked := range mark {
		if marked {
			mark[v] = false
			out = append(out, indoor.PartitionID(v))
		}
	}
	return out
}

// insertIndexed adds q and its rows to the index entries of its relevant
// partitions, keeping each entry ascending by query id.
func (s *Stream) insertIndexed(q *stQuery) {
	var row []float64
	for _, v := range q.parts {
		x := &s.partQ[v]
		enter := s.sp.Partition(v).Enter
		row = appendRow(row[:0], q.doorDist, enter)
		i, _ := slices.BinarySearch(x.ids, q.id)
		x.qs = slices.Insert(x.qs, i, q)
		x.ids = slices.Insert(x.ids, i, q.id)
		x.dd = slices.Insert(x.dd, i*len(enter), row...)
	}
}

// removeIndexed undoes insertIndexed.
func (s *Stream) removeIndexed(q *stQuery) {
	for _, v := range q.parts {
		x := &s.partQ[v]
		n := len(s.sp.Partition(v).Enter)
		i, _ := slices.BinarySearch(x.ids, q.id)
		if i < len(x.qs) && x.qs[i] == q {
			x.qs = slices.Delete(x.qs, i, i+1)
			x.ids = slices.Delete(x.ids, i, i+1)
			x.dd = slices.Delete(x.dd, i*n, (i+1)*n)
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
// ascending by object id. k must be >= 1 (exec.ErrInvalidOp otherwise, the
// rule every kNN query follows).
func (s *Stream) RegisterKNN(qid int32, p indoor.Point, k int, t float64) ([]Event, error) {
	return s.RegisterKNNCtx(context.Background(), qid, p, k, t)
}

// RegisterKNNCtx is RegisterKNN with the registration-time Dijkstra bounded
// by ctx. A kNN monitor's distance field is unbounded (every reachable door
// is settled), so large venues may want a deadline here.
func (s *Stream) RegisterKNNCtx(ctx context.Context, qid int32, p indoor.Point, k int, t float64) ([]Event, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: knn monitor %d: k must be >= 1, got %d", exec.ErrInvalidOp, qid, k)
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
	if kind == kindKNN {
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
	var at site
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id, u := range sh.cur {
			at.reset(s.sp, u.Part, u.Loc)
			if d := q.objDist(s.sp, &at); q.holds(d) {
				cands = append(cands, od{id, d})
			}
		}
		sh.mu.Unlock()
	}
	var events []Event
	if q.kind == kindRange {
		slices.SortFunc(cands, func(a, b od) int { return cmp.Compare(a.id, b.id) })
		for _, c := range cands {
			q.inside = append(q.inside, c.id)
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
	slices.Sort(ids)
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
// Unknown ids return nil; a known monitor's empty result is non-nil.
func (s *Stream) Result(qid int32) []int32 {
	ids, _ := s.Read(qid)
	return ids
}

// Neighbors returns a kNN monitor's current result ascending by
// (distance, id), or nil for unknown or range monitors.
func (s *Stream) Neighbors(qid int32) []query.Neighbor {
	_, nn := s.Read(qid)
	return nn
}

// Read returns Result and Neighbors of monitor qid taken under one lock, so
// both describe the same state even while batches are applied.
func (s *Stream) Read(qid int32) (ids []int32, nn []query.Neighbor) {
	s.mu.RLock()
	q, ok := s.queries[qid]
	s.mu.RUnlock()
	if !ok {
		return nil, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.kind == kindRange {
		ids = make([]int32, len(q.inside))
		copy(ids, q.inside)
		return ids, nil
	}
	nn = make([]query.Neighbor, len(q.top))
	copy(nn, q.top)
	ids = make([]int32, len(nn))
	for i, nb := range nn {
		ids[i] = nb.ID
	}
	slices.Sort(ids)
	return ids, nn
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
	slices.SortFunc(qs, func(a, b *stQuery) int { return cmp.Compare(a.id, b.id) })
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
// change. An update whose Part is indoor.NoPartition is located there with
// Space.HostPartition, and its Part in us is set to the host found; one that
// no partition hosts is invalid. An update that names a partition is checked
// against it. The batch is applied in one pass, in batch order, on the
// caller's goroutine: each update swaps the object's position under its
// shard lock, evaluates the monitors its old and new partitions touch (see
// move), and folds each change into that monitor's result at once. So for
// update streams with strictly increasing timestamps the events are
// bit-identical to applying the same updates one at a time — for any shard
// count or batch partitioning — and the sort key (T, query, object) is
// total, because one timestamp is one update, and one update yields at most
// one event per (query, object) pair: a kNN update can emit a leave and an
// enter on one query, but for different objects. When timestamps tie, events
// equal on (T, query, object) share a query, and they stay in that
// monitor's fold order, which is batch order.
func (s *Stream) ApplyBatch(us []Update) ([]Event, error) {
	if len(us) == 0 {
		return nil, nil
	}
	for i := range us {
		u := &us[i]
		if u.Part == indoor.NoPartition {
			part, ok := s.sp.HostPartition(u.Loc)
			if !ok {
				return nil, fmt.Errorf("moving: batch index %d: %w: object %d at %v is in no partition",
					i, ErrNotIndoors, u.ID, u.Loc)
			}
			u.Part = part
		} else if err := validateUpdate(s.sp, *u); err != nil {
			return nil, fmt.Errorf("moving: batch index %d: %w", i, err)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrStreamClosed
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	// Sized for about two events per update, what ingest traffic emits, so
	// a batch's events are usually one allocation.
	events := make([]Event, 0, 2*len(us))
	for i := range us {
		u := &us[i]
		// The shard lock covers the position swap only: evaluation and
		// fold run unlocked, so concurrent batches of other objects hashed
		// to this shard do not wait for them.
		sh := &s.shards[s.shardOf(u.ID)]
		sh.mu.Lock()
		prev, known := sh.cur[u.ID]
		sh.cur[u.ID] = *u
		sh.mu.Unlock()
		sc.now.reset(s.sp, u.Part, u.Loc)
		var was *site
		if known {
			sc.was.reset(s.sp, prev.Part, prev.Loc)
			was = &sc.was
		}
		var touched int64
		events, touched = s.move(events, u.ID, u.T, was, &sc.now)
		Metrics.Touched.Observe(touched)
	}
	// Events come out in batch order, which is already (T, query, object)
	// order unless timestamps tie or fall along the batch, or a kNN swap
	// enters a lower id than it drops.
	if !slices.IsSortedFunc(events, compareEvents) {
		sc.keys = sortEvents(events, sc.keys)
	}
	if len(events) == 0 {
		events = nil
	}
	Metrics.Batches.Add(1)
	Metrics.Updates.Add(int64(len(us)))
	Metrics.Events.Add(int64(len(events)))
	return events, nil
}

// compareEvents orders events by (T, query, object).
func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.T, b.T); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Query, b.Query); c != 0 {
		return c
	}
	return cmp.Compare(a.Object, b.Object)
}

// keyedEvent is an event with its position in the batch's event list.
// (T, query, object, position) is unique, so an unstable sort on it orders
// the events exactly as a stable sort on (T, query, object) does, in
// O(n log n) where a stable sort without a buffer merges in place in
// O(n log² n): a seeding batch, every report at one timestamp, is that
// sort's worst case.
type keyedEvent struct {
	t          float64
	query, obj int32
	pos        int32
	enter      bool
}

// sortEvents sorts events by (T, query, object), keeping events equal on
// that key in their current order. keys is reusable working memory; the
// grown buffer is returned.
func sortEvents(events []Event, keys []keyedEvent) []keyedEvent {
	keys = keys[:0]
	for i, e := range events {
		keys = append(keys, keyedEvent{t: e.T, query: e.Query, obj: e.Object, pos: int32(i), enter: e.Enter})
	}
	slices.SortFunc(keys, func(a, b keyedEvent) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.query, b.query); c != 0 {
			return c
		}
		if c := cmp.Compare(a.obj, b.obj); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for i, k := range keys {
		events[i] = Event{Query: k.query, Object: k.obj, Enter: k.enter, T: k.t}
	}
	return keys
}

// move evaluates object obj's step from was (nil: it was unknown) to now
// (nil: it left the building) against every monitor its old or new
// partition touches, folds each change into the monitor at once, and
// appends the events in ascending monitor id. It returns the events and the
// number of monitors evaluated. A monitor's state records the object's last
// evaluated distance, which is its distance at was: a monitor not indexed
// on a partition has +Inf distance there, so any step that could flip its
// state touches it.
func (s *Stream) move(evs []Event, obj int32, t float64, was, now *site) ([]Event, int64) {
	var none partIndex
	newX, oldX := &none, &none
	nNew, nOld := 0, 0
	if now != nil {
		newX, nNew = &s.partQ[now.part], len(now.enter)
	}
	if was != nil {
		oldX, nOld = &s.partQ[was.part], len(was.enter)
	}
	newIDs, oldIDs := newX.ids, oldX.ids
	// Merge the two qid-sorted lists, deduplicating queries relevant to
	// both partitions; each distance reads the row of the list the query
	// came from. A query only on the new partition's list was not indexed
	// where the object stood, so its previous distance is +Inf; one only on
	// the old list is not indexed where the object stands, so its new
	// distance is +Inf. An object that stayed in its partition merges the
	// list with itself.
	inf := math.Inf(1)
	touched := int64(0)
	a, b := 0, 0
	for a < len(newIDs) || b < len(oldIDs) {
		var q *stQuery
		dist, old := inf, inf
		switch {
		case b < len(oldIDs) && (a >= len(newIDs) || oldIDs[b] < newIDs[a]):
			q = oldX.qs[b]
			old = q.objDistRow(s.sp, was, oldX.row(b, nOld))
			b++
		case b < len(oldIDs) && oldIDs[b] == newIDs[a]:
			q = newX.qs[a]
			dist = q.objDistRow(s.sp, now, newX.row(a, nNew))
			old = q.objDistRow(s.sp, was, oldX.row(b, nOld))
			a++
			b++
		default:
			q = newX.qs[a]
			dist = q.objDistRow(s.sp, now, newX.row(a, nNew))
			a++
		}
		touched++
		if q.changes(old, dist) {
			evs = q.fold(evs, obj, dist, t)
		}
	}
	return evs, touched
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
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	sc.was.reset(s.sp, prev.Part, prev.Loc)
	events, _ := s.move(nil, objID, t, &sc.was, nil)
	return events
}

// fold applies the object's new distance dist to the monitor's result
// state, appends the membership events to evs, and pushes them to
// subscribers.
func (q *stQuery) fold(evs []Event, obj int32, dist, t float64) []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	n0 := len(evs)
	if q.kind == kindRange {
		now := q.holds(dist)
		j, was := slices.BinarySearch(q.inside, obj)
		switch {
		case now && !was:
			q.inside = slices.Insert(q.inside, j, obj)
			evs = append(evs, Event{Query: q.id, Object: obj, Enter: true, T: t})
		case !now && was:
			q.inside = slices.Delete(q.inside, j, j+1)
			evs = append(evs, Event{Query: q.id, Object: obj, Enter: false, T: t})
		}
	} else {
		evs = q.foldKNN(evs, obj, dist, t)
	}
	if len(evs) > n0 && len(q.subs) > 0 {
		q.pushLocked(evs[n0:])
	}
	return evs
}

// foldKNN applies the object's new distance dist to a kNN monitor. The
// top-k is recomputed (an offer-order-independent scan of the known finite
// distances) only when the change can actually alter it: the object is
// currently in the top, the top is underfull, or the new distance beats the
// current k-th bound under the (distance, id) tie-break.
func (q *stQuery) foldKNN(evs []Event, obj int32, dist, t float64) []Event {
	finite := !math.IsInf(dist, 1)
	_, had := q.dists[obj]
	if finite {
		q.dists[obj] = dist
	} else if had {
		delete(q.dists, obj)
	} else {
		return evs // unreachable object was already absent: nothing changes
	}
	if !q.inTop[obj] {
		if !finite {
			return evs // a non-member got farther: the top is untouched
		}
		if len(q.top) >= q.k {
			kth := q.top[len(q.top)-1]
			if dist > kth.Dist || (dist == kth.Dist && obj > kth.ID) {
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
	slices.Sort(leaves)
	slices.Sort(enters)
	for _, id := range leaves {
		evs = append(evs, Event{Query: q.id, Object: id, Enter: false, T: t})
	}
	for _, id := range enters {
		evs = append(evs, Event{Query: q.id, Object: id, Enter: true, T: t})
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
	s.partQ = make([]partIndex, len(s.partQ))
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
