package des

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refItem is one pending event of the reference queue.
type refItem struct {
	at    Time
	seq   uint64
	id    int
	index int
}

// refQueue is the oracle for the engine's typed 4-ary heap: the binary
// container/heap queue the engine used before, ordered by (at, seq).
type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	it := x.(*refItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// TestQueueMatchesHeapOracle is a property test of the event queue: random
// sequences of Schedule, Cancel and Step fire the same events in the same
// order, at the same times, on the engine as on the container/heap oracle.
// Delays are drawn from a small range so equal timestamps (the FIFO
// tie-break) are common.
func TestQueueMatchesHeapOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref refQueue
		var refNow Time
		var refSeq uint64
		type pending struct {
			ev *Event
			it *refItem
		}
		live := map[int]pending{}
		var ids []int // ids in live, for picking a random cancel victim
		var got, want []int
		var gotAt, wantAt []Time
		nextID := 0

		forget := func(id int) {
			delete(live, id)
			for i, x := range ids {
				if x == id {
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
					break
				}
			}
		}
		ops := 50 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // Schedule
				id := nextID
				nextID++
				delay := Time(rng.Intn(8)) * Millisecond
				ev := e.Schedule(delay, func() {
					got = append(got, id)
					gotAt = append(gotAt, e.Now())
				})
				refSeq++
				it := &refItem{at: refNow + delay, seq: refSeq, id: id}
				heap.Push(&ref, it)
				live[id] = pending{ev, it}
				ids = append(ids, id)
			case r < 7: // Cancel
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				p := live[id]
				e.Cancel(p.ev)
				heap.Remove(&ref, p.it.index)
				forget(id)
			default: // Step
				limit := refNow + Time(rng.Intn(4))*Millisecond
				fired := e.Step(limit)
				refFired := len(ref) > 0 && ref[0].at <= limit
				if fired != refFired {
					t.Logf("seed %d op %d: Step fired=%v, oracle %v", seed, op, fired, refFired)
					return false
				}
				if refFired {
					it := heap.Pop(&ref).(*refItem)
					if it.at > refNow {
						refNow = it.at
					}
					want = append(want, it.id)
					wantAt = append(wantAt, refNow)
					forget(it.id)
				}
			}
			if e.Pending() != len(ref) {
				t.Logf("seed %d op %d: Pending = %d, oracle %d", seed, op, e.Pending(), len(ref))
				return false
			}
		}
		// Drain both queues.
		for e.Step(MaxTime) {
		}
		for len(ref) > 0 {
			it := heap.Pop(&ref).(*refItem)
			if it.at > refNow {
				refNow = it.at
			}
			want = append(want, it.id)
			wantAt = append(wantAt, refNow)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotAt, wantAt) {
			t.Logf("seed %d: fired %v at %v, oracle %v at %v", seed, got, gotAt, want, wantAt)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
