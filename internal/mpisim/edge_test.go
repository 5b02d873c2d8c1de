package mpisim

import (
	"testing"

	"cbes/internal/des"
)

// expectPanic runs fn and fails unless it panics.
func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s should panic", what)
		}
	}()
	fn()
}

func TestSendToSelfPanics(t *testing.T) {
	// Misuse panics fire inside the rank's body; recovered there, the rank
	// runs on (unrecovered, they would propagate out of Run).
	vc, net := newWorldEnv()
	panicked := false
	Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				r.Send(0, 100)
			}()
		}
	}, Options{})
	if !panicked {
		t.Fatal("send to self should panic")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	vc, net := newWorldEnv()
	panicked := false
	Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				r.Send(1, -5)
			}()
			r.Send(1, 64) // unblock the peer
		} else {
			r.Recv(0)
		}
	}, Options{})
	if !panicked {
		t.Fatal("negative size should panic")
	}
}

func TestInvalidMappingPanics(t *testing.T) {
	vc, net := newWorldEnv()
	expectPanic(t, "invalid node", func() {
		Launch(vc, net, []int{0, 99}, func(r *Rank) {}, Options{})
	})
	expectPanic(t, "empty mapping", func() {
		Launch(vc, net, nil, func(r *Rank) {}, Options{})
	})
}

func TestDeadlockDetection(t *testing.T) {
	vc, net := newWorldEnv()
	w := Launch(vc, net, []int{0, 1}, func(r *Rank) {
		r.Recv(1 - r.ID()) // both wait forever: nobody sends
	}, Options{})
	expectPanic(t, "deadlocked world", func() { w.Wait() })
}

func TestZeroByteMessage(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0, 1}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0)
		} else {
			if got := r.Recv(0); got != 0 {
				t.Errorf("recv size = %d", got)
			}
		}
	}, Options{})
	if res.Elapsed <= 0 {
		t.Fatal("zero-byte message should still take overhead time")
	}
}

func TestSingleRankCollectivesNoOp(t *testing.T) {
	vc, net := newWorldEnv()
	res := Run(vc, net, []int{0}, func(r *Rank) {
		r.Barrier()
		r.Bcast(0, 1024)
		r.Reduce(0, 1024, 0.001)
		r.Allreduce(1024, 0.001)
		r.Allgather(1024)
		r.Alltoall(1024)
		r.Gather(0, 1024)
		r.Scatter(0, 1024)
	}, Options{})
	// No communication: only trivial time passes.
	if res.Elapsed > des.Millisecond {
		t.Fatalf("single-rank collectives took %v", res.Elapsed)
	}
}

func TestRankAccessors(t *testing.T) {
	vc, net := newWorldEnv()
	Run(vc, net, []int{3, 4}, func(r *Rank) {
		if r.Size() != 2 {
			t.Errorf("Size = %d", r.Size())
		}
		want := 3
		if r.ID() == 1 {
			want = 4
		}
		if r.NodeID() != want {
			t.Errorf("NodeID = %d, want %d", r.NodeID(), want)
		}
		if r.Arch() == "" {
			t.Error("empty arch")
		}
		if r.Now() < 0 {
			t.Error("negative time")
		}
	}, Options{})
}

func TestWorldResultAfterWaitIn(t *testing.T) {
	vc, net := newWorldEnv()
	w := Launch(vc, net, []int{0}, func(r *Rank) { r.Compute(0.5) }, Options{})
	var got *Result
	vc.Eng.Spawn("watcher", func(p *des.Proc) {
		w.WaitIn(p)
		got = w.Result()
	})
	vc.Eng.Run()
	if got == nil || got.Elapsed <= 0 {
		t.Fatalf("result = %+v", got)
	}
	// Result of an unfinished world panics.
	w2 := Launch(vc, net, []int{0}, func(r *Rank) { r.Compute(0.1) }, Options{})
	expectPanic(t, "unfinished Result", func() { w2.Result() })
	w2.Wait()
}
