package verify

import (
	"reflect"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
)

// naiveDst is the O(n²) reference classifier: from every start, walk
// hop by hop with an explicit visited set until delivery, a dead end, or
// a revisit. No sharing, no colouring — slow and obviously correct.
// walk is the nodes a packet from the start passes through before the
// walk ends: the destination excluded, a dead-end node included, and for
// a loop the entry path followed by one lap of the cycle.
type naiveVerdict struct {
	outcome Outcome
	entry   int
	loopLen int
	walk    []int
}

func naiveDst(s *State, dst int) []naiveVerdict {
	n := s.N()
	out := make([]naiveVerdict, n)
	for start := 0; start < n; start++ {
		var walk []int
		at := make(map[int]int, n)
		u := start
		for {
			if u == dst {
				out[start] = naiveVerdict{outcome: OutcomeDeliver, walk: walk}
				break
			}
			if pos, dup := at[u]; dup {
				out[start] = naiveVerdict{outcome: OutcomeLoop, entry: pos, loopLen: len(walk) - pos, walk: walk}
				break
			}
			at[u] = len(walk)
			walk = append(walk, u)
			v := s.Next(dst, u)
			if v < 0 {
				out[start] = naiveVerdict{outcome: OutcomeNoRoute, walk: walk}
				break
			}
			if !s.LinkUp(u, v) {
				out[start] = naiveVerdict{outcome: OutcomeLinkDown, walk: walk}
				break
			}
			u = v
		}
	}
	return out
}

// applyOps decodes the fuzz input's operation stream into state
// mutations: route installs, withdrawals (the partial/cleared tables
// routing.Delta produces), node wipes, and link toggles. It returns the
// ops so a fresh state can replay them (incremental ≡ rebuilt).
type fuzzOp struct{ kind, a, b, c byte }

func decodeOps(data []byte) (n int, ops []fuzzOp) {
	if len(data) == 0 {
		return 0, nil
	}
	n = int(data[0]%15) + 2
	for i := 1; i+3 < len(data); i += 4 {
		ops = append(ops, fuzzOp{data[i], data[i+1], data[i+2], data[i+3]})
	}
	return n, ops
}

func applyOp(s *State, op fuzzOp) {
	n := s.N()
	a, b, c := int(op.a)%n, int(op.b)%n, int(op.c)%n
	switch op.kind % 5 {
	case 0:
		s.SetNext(a, b, c)
	case 1:
		s.SetNext(a, b, -1) // withdrawal
	case 2:
		s.ClearNode(a) // restart
	case 3:
		s.SetLink(a, b, false)
	case 4:
		s.SetLink(a, b, true)
	}
}

// replayed records the nodes State.replay visits from start for dst
// within budget hops, with a visitor that never fires.
func replayed(t *testing.T, s *State, dst, start, budget int) []int {
	t.Helper()
	var got []int
	if hop := s.replay(dst, start, budget, func(node int) bool {
		got = append(got, node)
		return false
	}); hop != 0 {
		t.Fatalf("dst %d start %d: replay reported hop %d for a visitor that never fired", dst, start, hop)
	}
	return got
}

// FuzzVerifyFIB hammers the classifier with arbitrary partial tables:
// it must terminate (the test itself hangs otherwise), never panic, and
// agree exactly with the naive walk reference on outcome, entry
// distance, and loop length for every (destination, start) pair. After
// every op, Reclassify of the previous classification must deep-equal
// a fresh Classify — and so must a Reclassify that skips several ops
// at a time, as the oracle's does across an epoch's events. The
// incrementally built state must match one rebuilt from the op stream,
// and the baseline replay walk must follow the naive walk hop for hop:
// the whole walk for a terminating start, and for a looping one the
// entry path then the cycle, lap after lap, for exactly as many hops as
// the budget grants.
func FuzzVerifyFIB(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 0})                                                 // self loop
	f.Add([]byte{5, 0, 0, 1, 2, 0, 0, 2, 1, 1, 0, 1, 0})                         // 2-cycle then clear
	f.Add([]byte{7, 0, 0, 1, 2, 0, 0, 2, 3, 0, 0, 3, 1, 3, 1, 2})                // 3-cycle + link down
	f.Add([]byte{4, 0, 1, 2, 3, 2, 2, 0, 0, 0, 1, 2, 3, 4, 1, 2})                // wipe then reinstall
	f.Add([]byte{2, 0, 0, 1, 2, 0, 0, 2, 0, 3, 1, 2, 0, 4, 1, 2, 0})             // flap of the in-use link 1-2
	f.Add([]byte{2, 0, 0, 1, 2, 0, 0, 2, 0, 3, 1, 3, 0, 4, 1, 3, 0})             // flap of the unused link 1-3
	f.Add([]byte{2, 0, 0, 1, 2, 0, 0, 2, 0, 0, 1, 2, 0, 2, 2, 0, 0, 0, 0, 2, 0}) // restart of node 2, then reinstall
	f.Add([]byte{2, 0, 0, 1, 2, 0, 0, 2, 1, 1, 0, 2, 0, 0, 0, 2, 1})             // clear then reinstall of one loop entry
	f.Fuzz(func(t *testing.T, data []byte) {
		n, ops := decodeOps(data)
		if n == 0 {
			return
		}
		s := NewState(n)
		r := NewState(n)
		var prevS, prevR []*DstReport
		for i, op := range ops {
			applyOp(s, op)
			prevS = s.Reclassify(prevS)
			if !reflect.DeepEqual(prevS, s.Classify()) {
				t.Fatalf("after op %d: Reclassify differs from a fresh Classify", i)
			}
			applyOp(r, op)
			if i%3 == 2 {
				prevR = r.Reclassify(prevR)
			}
		}
		// Incremental ≡ rebuilt: replaying the same ops on a fresh state
		// must land on an identical table.
		if !s.Equal(r) {
			t.Fatal("replaying the op stream produced a different state")
		}
		if !reflect.DeepEqual(r.Reclassify(prevR), r.Classify()) {
			t.Fatal("Reclassify across batched ops differs from a fresh Classify")
		}
		for dst := 0; dst < n; dst++ {
			fast := s.ClassifyDst(dst)
			slow := naiveDst(s, dst)
			for u := 0; u < n; u++ {
				if fast.Outcome[u] != slow[u].outcome {
					t.Fatalf("dst %d start %d: classifier %v, naive %v", dst, u, fast.Outcome[u], slow[u].outcome)
				}
				if fast.Outcome[u] != OutcomeLoop {
					if got := replayed(t, s, dst, u, dataplane.InitialTTL); !reflect.DeepEqual(got, slow[u].walk) {
						t.Fatalf("dst %d start %d: replay visited %v, naive walk %v", dst, u, got, slow[u].walk)
					}
					continue
				}
				if int(fast.Entry[u]) != slow[u].entry || int(fast.LoopLen[u]) != slow[u].loopLen {
					t.Fatalf("dst %d start %d: classifier entry/len %d/%d, naive %d/%d",
						dst, u, fast.Entry[u], fast.LoopLen[u], slow[u].entry, slow[u].loopLen)
				}
				b, l := slow[u].entry, slow[u].loopLen
				k := 1 + (dst+u)%3
				got := replayed(t, s, dst, u, b+k*l)
				if len(got) != b+k*l {
					t.Fatalf("dst %d start %d: replay visited %d hops, want B+%d·L = %d", dst, u, len(got), k, b+k*l)
				}
				for i, node := range got {
					at := i // still on the entry path
					if i >= b {
						at = b + (i-b)%l // lap (i-b)/l of the cycle
					}
					want := slow[u].walk[at]
					if node != want {
						t.Fatalf("dst %d start %d: replay hop %d at node %d, want %d (walk %v)", dst, u, i+1, node, want, slow[u].walk)
					}
				}
				// A visitor that fires on the first revisit — an exact
				// detector — stops the walk one hop into the second lap.
				seen := make([]bool, n)
				hop := s.replay(dst, u, dataplane.InitialTTL, func(node int) bool {
					if seen[node] {
						return true
					}
					seen[node] = true
					return false
				})
				if hop != b+l+1 {
					t.Fatalf("dst %d start %d: exact visitor fired at hop %d, want B+L+1 = %d", dst, u, hop, b+l+1)
				}
			}
		}
	})
}
