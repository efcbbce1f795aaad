package mpi

import (
	"sync"
	"testing"

	"gpmetis/internal/perfmodel"
)

func run(t *testing.T, nprocs int, body func(r *Rank)) float64 {
	t.Helper()
	sec, err := Run(perfmodel.Default(), nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(perfmodel.Default(), 0, func(r *Rank) {}); err == nil {
		t.Error("nprocs=0 should fail")
	}
	if _, err := Run(perfmodel.Default(), 2, func(r *Rank) { panic("boom") }); err == nil {
		t.Error("rank panic should surface as error")
	}
}

func TestSendRecv(t *testing.T) {
	var got []int
	sec := run(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, []int{10, 20, 30})
		} else {
			got = r.Recv(0)
		}
	})
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Errorf("payload = %v", got)
	}
	if sec <= 0 {
		t.Error("message passing should advance the virtual clock")
	}
}

func TestSendCopiesPayload(t *testing.T) {
	run(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			buf := []int{1, 2, 3}
			r.Send(1, buf)
			buf[0] = 99 // must not affect the receiver
		} else {
			got := r.Recv(0)
			if got[0] != 1 {
				t.Errorf("payload mutated after Send: %v", got)
			}
		}
	})
}

func TestCausalClock(t *testing.T) {
	// Receiver's clock must be at least sender's send time + wire time,
	// even if the receiver did no local work.
	var recvClock float64
	m := perfmodel.Default()
	_, err := Run(m, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.ChargeSeconds(1.0) // sender is busy for 1s first
			r.Send(1, make([]int, 1000))
		} else {
			r.Recv(0)
			recvClock = r.Clock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := m.Net.LatencySec + float64(1000*intBytes+msgOverheadBytes)/m.Net.BytesPerSec
	if recvClock < 1.0+wire-1e-12 {
		t.Errorf("receiver clock %g ignores causality (want >= %g)", recvClock, 1.0+wire)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	const P = 4
	clocks := make([]float64, P)
	run(t, P, func(r *Rank) {
		r.ChargeSeconds(float64(r.ID())) // skewed work: 0..3 seconds
		r.Barrier()
		clocks[r.ID()] = r.Clock()
	})
	for p := 1; p < P; p++ {
		if clocks[p] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
	if clocks[0] < 3.0 {
		t.Errorf("barrier clock %g must reach the slowest rank (3s)", clocks[0])
	}
}

// TestBackToBackBarriersReleaseAtTheirOwnMax runs many barriers in a row
// with skewed work between them. A rank released by one barrier may enter
// the next before every waiter of the first has woken; the waiters must
// still leave at the first barrier's release clock.
func TestBackToBackBarriersReleaseAtTheirOwnMax(t *testing.T) {
	const P, rounds = 8, 200
	m := perfmodel.Default()
	charge := func(id, round int) float64 { return float64((id*7+round)%P) * 1e-3 }
	clocks := make([][]float64, P)
	if _, err := Run(m, P, func(r *Rank) {
		for round := 0; round < rounds; round++ {
			r.ChargeSeconds(charge(r.ID(), round))
			r.Barrier()
			clocks[r.ID()] = append(clocks[r.ID()], r.Clock())
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for round := 0; round < rounds; round++ {
		release := 0.0
		for p := 0; p < P; p++ {
			if c := want + charge(p, round); c > release {
				release = c
			}
		}
		want = release + m.Net.LatencySec
		for p := 0; p < P; p++ {
			if clocks[p][round] != want {
				t.Fatalf("round %d: rank %d left the barrier at %v, want %v", round, p, clocks[p][round], want)
			}
		}
	}
}

func TestChargeAccumulates(t *testing.T) {
	run(t, 1, func(r *Rank) {
		r.Charge(perfmodel.ThreadCost{Ops: 1e9})
		if r.Clock() <= 0 {
			t.Error("Charge should advance the clock")
		}
		before := r.Clock()
		r.ChargeSeconds(-5) // negative charges are ignored
		if r.Clock() != before {
			t.Error("negative ChargeSeconds must be ignored")
		}
	})
}

func TestAllToAll(t *testing.T) {
	const P = 4
	var mu sync.Mutex
	results := make(map[int][][]int)
	run(t, P, func(r *Rank) {
		out := make([][]int, P)
		for d := 0; d < P; d++ {
			out[d] = []int{r.ID()*100 + d}
		}
		in := r.AllToAll(out)
		mu.Lock()
		results[r.ID()] = in
		mu.Unlock()
	})
	for p := 0; p < P; p++ {
		in := results[p]
		if len(in) != P {
			t.Fatalf("rank %d received %d buffers", p, len(in))
		}
		for s := 0; s < P; s++ {
			if len(in[s]) != 1 || in[s][0] != s*100+p {
				t.Errorf("rank %d from %d: got %v, want [%d]", p, s, in[s], s*100+p)
			}
		}
	}
}

func TestAllGatherAndReduce(t *testing.T) {
	const P = 5
	run(t, P, func(r *Rank) {
		all := r.AllGather([]int{r.ID() + 1})
		for s := 0; s < P; s++ {
			if all[s][0] != s+1 {
				t.Errorf("AllGather[%d] = %v", s, all[s])
			}
		}
		if sum := r.AllReduceSum(r.ID() + 1); sum != 15 {
			t.Errorf("AllReduceSum = %d, want 15", sum)
		}
		if max := r.AllReduceMax(r.ID()); max != P-1 {
			t.Errorf("AllReduceMax = %d, want %d", max, P-1)
		}
	})
}

func TestBcast(t *testing.T) {
	const P = 3
	run(t, P, func(r *Rank) {
		var data []int
		if r.ID() == 1 {
			data = []int{7, 8, 9}
		}
		got := r.Bcast(1, data)
		if len(got) != 3 || got[0] != 7 || got[2] != 9 {
			t.Errorf("rank %d Bcast got %v", r.ID(), got)
		}
	})
	// Single-rank broadcast must still copy.
	run(t, 1, func(r *Rank) {
		src := []int{5}
		got := r.Bcast(0, src)
		src[0] = 6
		if got[0] != 5 {
			t.Error("Bcast must copy even for size 1")
		}
	})
}

func TestRepeatedCollectivesDoNotDeadlock(t *testing.T) {
	const P = 6
	sec := run(t, P, func(r *Rank) {
		for i := 0; i < 20; i++ {
			out := make([][]int, P)
			for d := range out {
				out[d] = []int{i}
			}
			in := r.AllToAll(out)
			for _, buf := range in {
				if buf[0] != i {
					t.Errorf("round %d corrupted: %v", i, buf)
				}
			}
		}
	})
	if sec <= 0 {
		t.Error("collectives must cost time")
	}
}

func TestMoreRanksMoreCommCost(t *testing.T) {
	// With fixed per-rank payload, an all-to-all across more ranks costs
	// more virtual time (more messages, same alpha each).
	cost := func(p int) float64 {
		sec, err := Run(perfmodel.Default(), p, func(r *Rank) {
			out := make([][]int, p)
			for d := range out {
				out[d] = make([]int, 100)
			}
			r.AllToAll(out)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	if c4, c16 := cost(4), cost(16); c16 <= c4 {
		t.Errorf("all-to-all over 16 ranks (%g) should cost more than over 4 (%g)", c16, c4)
	}
}

func TestInvalidPeersPanic(t *testing.T) {
	run(t, 1, func(r *Rank) {
		for name, f := range map[string]func(){
			"send":  func() { r.Send(5, nil) },
			"recv":  func() { r.Recv(-1) },
			"bcast": func() { r.Bcast(9, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with invalid rank should panic", name)
					}
				}()
				f()
			}()
		}
	})
}
