package core

import (
	"sync"
	"testing"
	"time"

	"dbs3/internal/relation"
)

func tupleAct(k int64) Activation {
	return Activation{Tuple: relation.NewTuple(relation.Int(k))}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(8)
	for i := int64(0); i < 5; i++ {
		q.Push(tupleAct(i))
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	batch := q.PopBatch(3, nil)
	if len(batch) != 3 {
		t.Fatalf("batch = %d", len(batch))
	}
	for i, a := range batch {
		if a.Tuple[0].AsInt() != int64(i) {
			t.Fatalf("order violated: %v", a.Tuple)
		}
	}
	rest := q.PopBatch(10, nil)
	if len(rest) != 2 || rest[0].Tuple[0].AsInt() != 3 {
		t.Fatalf("rest = %v", rest)
	}
}

func TestQueueTriggerActivation(t *testing.T) {
	q := NewQueue(1)
	q.Push(Activation{})
	batch := q.PopBatch(4, nil)
	if len(batch) != 1 || batch[0].Tuple != nil {
		t.Fatalf("batch = %v", batch)
	}
	if tupleAct(1).Tuple == nil {
		t.Error("tuple activation claims to be trigger")
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(2)
	q.Push(tupleAct(1))
	q.Push(tupleAct(2))
	done := make(chan struct{})
	go func() {
		q.Push(tupleAct(3)) // must block until a pop
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("push to full queue did not block")
	case <-time.After(20 * time.Millisecond):
	}
	q.PopBatch(1, nil)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("blocked push never released")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(4)
	next := int64(0)
	for round := 0; round < 10; round++ {
		q.Push(tupleAct(next))
		q.Push(tupleAct(next + 1))
		b := q.PopBatch(2, nil)
		if len(b) != 2 || b[0].Tuple[0].AsInt() != next || b[1].Tuple[0].AsInt() != next+1 {
			t.Fatalf("round %d: %v", round, b)
		}
		next += 2
	}
}

func TestQueueCloseSemantics(t *testing.T) {
	q := NewQueue(4)
	q.Push(tupleAct(1))
	q.Close()
	if q.Drained() {
		t.Error("closed but non-empty queue reported drained")
	}
	q.PopBatch(1, nil)
	if !q.Drained() {
		t.Error("closed empty queue not drained")
	}
	defer func() {
		if recover() == nil {
			t.Error("push after close should panic")
		}
	}()
	q.Push(tupleAct(2))
}

func TestQueueCloseReleasesBlockedProducer(t *testing.T) {
	q := NewQueue(1)
	q.Push(tupleAct(1))
	released := make(chan any, 1)
	go func() {
		defer func() { released <- recover() }()
		q.Push(tupleAct(2))
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case r := <-released:
		if r == nil {
			t.Error("push to closed queue should panic, not succeed")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked producer never released by Close")
	}
}

func TestQueueLPTScore(t *testing.T) {
	q := NewQueue(8)
	if q.lptScore(q.Len()) != 0 {
		t.Error("empty queue should score 0")
	}
	q.SetEstimate(100)
	if q.lptScore(q.Len()) != 0 {
		t.Error("empty queue with estimate should still score 0")
	}
	q.Push(Activation{})
	if q.lptScore(q.Len()) != 100 {
		t.Errorf("triggered score = %v", q.lptScore(q.Len()))
	}
	// Pipelined scoring: no static estimate, per-tuple cost * length.
	p := NewQueue(8)
	p.SetPerTupleCost(5)
	p.Push(tupleAct(1))
	p.Push(tupleAct(2))
	if p.lptScore(p.Len()) != 10 {
		t.Errorf("pipelined score = %v", p.lptScore(p.Len()))
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue(16)
	const producers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(tupleAct(int64(p*per + i)))
			}
		}(p)
	}
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var cwg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 3; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				b := q.PopBatch(8, nil)
				mu.Lock()
				for _, a := range b {
					seen[a.Tuple[0].AsInt()] = true
				}
				n := len(seen)
				mu.Unlock()
				if n == producers*per {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	waitDone := make(chan struct{})
	go func() { cwg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		close(stop)
		t.Fatal("consumers did not finish")
	}
	if len(seen) != producers*per {
		t.Fatalf("saw %d distinct activations, want %d", len(seen), producers*per)
	}
}

func TestQueueMinimumCapacity(t *testing.T) {
	q := NewQueue(0)
	q.Push(tupleAct(1)) // capacity clamps to 1; must not deadlock
	if q.Len() != 1 {
		t.Errorf("Len = %d", q.Len())
	}
}
