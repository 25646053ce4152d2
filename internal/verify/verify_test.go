package verify

import (
	"reflect"
	"testing"
)

// chain installs next hops for one destination from a map of u→v edges.
func chain(s *State, dst int, edges map[int]int) {
	for u, v := range edges {
		s.SetNext(dst, u, v)
	}
}

func TestClassifyDeliverChain(t *testing.T) {
	s := NewState(5)
	chain(s, 0, map[int]int{1: 0, 2: 1, 3: 2, 4: 3})
	r := s.ClassifyDst(0)
	for u := 0; u < 5; u++ {
		if r.Outcome[u] != OutcomeDeliver {
			t.Errorf("node %d: got %v, want deliver", u, r.Outcome[u])
		}
	}
	if len(r.Cycles) != 0 {
		t.Errorf("deliver chain produced cycles: %v", r.Cycles)
	}
}

func TestClassifyLoopWithEntries(t *testing.T) {
	// dst 0; cycle 2→3→4→2; entries 1→2 and 5→4.
	s := NewState(6)
	chain(s, 0, map[int]int{1: 2, 2: 3, 3: 4, 4: 2, 5: 4})
	r := s.ClassifyDst(0)

	want := map[int]Outcome{0: OutcomeDeliver, 1: OutcomeLoop, 2: OutcomeLoop, 3: OutcomeLoop, 4: OutcomeLoop, 5: OutcomeLoop}
	for u, oc := range want {
		if r.Outcome[u] != oc {
			t.Errorf("node %d: got %v, want %v", u, r.Outcome[u], oc)
		}
	}
	for _, c := range []struct{ u, entry, loopLen int }{
		{1, 1, 3}, {2, 0, 3}, {3, 0, 3}, {4, 0, 3}, {5, 1, 3},
	} {
		if int(r.Entry[c.u]) != c.entry || int(r.LoopLen[c.u]) != c.loopLen {
			t.Errorf("node %d: entry/len = %d/%d, want %d/%d", c.u, r.Entry[c.u], r.LoopLen[c.u], c.entry, c.loopLen)
		}
	}
	if len(r.Cycles) != 1 || !reflect.DeepEqual(r.Cycles[0], []int{2, 3, 4}) {
		t.Errorf("cycles = %v, want [[2 3 4]]", r.Cycles)
	}
	for u, oc := range r.Outcome {
		if want := u >= 1 && u <= 5; (oc == OutcomeLoop) != want {
			t.Errorf("node %d: outcome %v, loops %v", u, oc, want)
		}
	}
}

func TestClassifyCanonicalCycleRotation(t *testing.T) {
	// Same cycle discovered from a start that enters at node 4: the
	// canonical form must still lead with the smallest member.
	s := NewState(6)
	chain(s, 0, map[int]int{5: 4, 4: 2, 2: 3, 3: 4})
	r := s.ClassifyDst(0)
	if len(r.Cycles) != 1 || !reflect.DeepEqual(r.Cycles[0], []int{2, 3, 4}) {
		t.Errorf("cycles = %v, want [[2 3 4]]", r.Cycles)
	}
}

func TestClassifyNoRoutePropagates(t *testing.T) {
	s := NewState(4)
	chain(s, 0, map[int]int{1: 2, 2: 3}) // 3 has no route
	r := s.ClassifyDst(0)
	for _, u := range []int{1, 2, 3} {
		if r.Outcome[u] != OutcomeNoRoute {
			t.Errorf("node %d: got %v, want no-route", u, r.Outcome[u])
		}
	}
}

func TestClassifyLinkDownPropagates(t *testing.T) {
	s := NewState(4)
	chain(s, 0, map[int]int{1: 2, 2: 3, 3: 0})
	s.SetLink(3, 0, false)
	r := s.ClassifyDst(0)
	for _, u := range []int{1, 2, 3} {
		if r.Outcome[u] != OutcomeLinkDown {
			t.Errorf("node %d: got %v, want link-down", u, r.Outcome[u])
		}
	}
	s.SetLink(3, 0, true)
	if r := s.ClassifyDst(0); r.Outcome[1] != OutcomeDeliver {
		t.Errorf("after link up: got %v, want deliver", r.Outcome[1])
	}
}

func TestClassifySelfLoop(t *testing.T) {
	s := NewState(3)
	s.SetNext(0, 1, 1) // node 1 forwards dst-0 traffic to itself
	r := s.ClassifyDst(0)
	if r.Outcome[1] != OutcomeLoop || r.LoopLen[1] != 1 || r.Entry[1] != 0 {
		t.Errorf("self loop: outcome=%v entry=%d len=%d", r.Outcome[1], r.Entry[1], r.LoopLen[1])
	}
	if r.Outcome[2] != OutcomeNoRoute {
		t.Errorf("node 2: got %v, want no-route", r.Outcome[2])
	}
}

func TestClassifyMultipleCyclesOneDst(t *testing.T) {
	s := NewState(7)
	chain(s, 0, map[int]int{1: 2, 2: 1, 3: 4, 4: 5, 5: 3, 6: 4})
	r := s.ClassifyDst(0)
	if len(r.Cycles) != 2 {
		t.Fatalf("cycles = %v, want two", r.Cycles)
	}
	if !reflect.DeepEqual(r.Cycles[0], []int{1, 2}) || !reflect.DeepEqual(r.Cycles[1], []int{3, 4, 5}) {
		t.Errorf("cycles = %v, want [[1 2] [3 4 5]]", r.Cycles)
	}
	if r.CycleID[6] != 1 || r.Entry[6] != 1 {
		t.Errorf("node 6: cycle=%d entry=%d, want 1/1", r.CycleID[6], r.Entry[6])
	}
	if got := LoopingPairs(s.Classify()); got != 6 {
		t.Errorf("looping pairs = %d, want 6", got)
	}
}

// TestReplayWalk pins the hop semantics the baseline replay shares with
// the data plane: a loop circles until the budget runs out, the
// delivering switch is never visited, and a dead-end node is.
func TestReplayWalk(t *testing.T) {
	s := NewState(6)
	chain(s, 0, map[int]int{1: 2, 2: 3, 3: 4, 4: 2, 5: 0})
	if got := replayed(t, s, 0, 1, 7); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 2, 3, 4}) {
		t.Errorf("loop walk: %v", got)
	}
	if got := replayed(t, s, 0, 5, 255); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("deliver walk: %v", got)
	}
	if got := replayed(t, s, 0, 0, 255); got != nil {
		t.Errorf("start-at-dst walk: %v", got)
	}
	s.SetLink(5, 0, false)
	if got := replayed(t, s, 0, 5, 255); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("link-down walk: %v", got)
	}
	chain(s, 1, map[int]int{3: 4})
	if got := replayed(t, s, 1, 3, 255); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("no-route walk: %v", got)
	}
	if hop := s.replay(0, 1, 255, func(node int) bool { return node == 4 }); hop != 4 {
		t.Errorf("visitor firing at node 4 stopped at hop %d, want 4", hop)
	}
}

// TestReclassifyDirtyRules pins which mutations dirty which
// destinations: only a changed entry, a flipped link under some entry,
// or a restart wiping an entry.
func TestReclassifyDirtyRules(t *testing.T) {
	s := NewState(6)
	chain(s, 0, map[int]int{1: 0, 2: 1, 3: 2})
	chain(s, 1, map[int]int{2: 1, 4: 3, 3: 2})
	chain(s, 4, map[int]int{0: 4})
	prev := s.Reclassify(nil)
	step := func(what string, mutate func(), want []int) {
		t.Helper()
		mutate()
		cur := s.Reclassify(prev)
		var got []int
		for d := range cur {
			if cur[d] != prev[d] {
				got = append(got, d)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reclassified %v, want %v", what, got, want)
		}
		if !reflect.DeepEqual(cur, s.Classify()) {
			t.Errorf("%s: Reclassify differs from Classify", what)
		}
		prev = cur
	}
	step("nothing", func() {}, nil)
	step("re-setting an entry", func() { s.SetNext(0, 2, 1) }, nil)
	step("downing an unused link", func() { s.SetLink(1, 4, false) }, nil)
	step("downing it again", func() { s.SetLink(1, 4, false) }, nil)
	step("downing a link two destinations cross", func() { s.SetLink(1, 2, false) }, []int{0, 1})
	step("downing a link one destination crosses backwards", func() { s.SetLink(4, 0, false) }, []int{4})
	step("restarting a node without entries", func() { s.ClearNode(5) }, nil)
	step("restarting a node with entries", func() { s.ClearNode(3) }, []int{0, 1})
	step("withdrawing an absent entry", func() { s.SetNext(2, 1, -1) }, nil)
	step("changing one entry", func() { s.SetNext(2, 1, 3) }, []int{2})
}

func TestCloneAndEqual(t *testing.T) {
	s := NewState(4)
	chain(s, 0, map[int]int{1: 2, 2: 3})
	s.SetLink(1, 2, false)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.SetNext(0, 3, 0)
	if s.Equal(c) {
		t.Fatal("route divergence not detected")
	}
	c = s.Clone()
	c.SetLink(1, 2, true)
	if s.Equal(c) {
		t.Fatal("link divergence not detected")
	}
	s.ClearNode(1)
	if s.Next(0, 1) != -1 {
		t.Fatal("ClearNode left a route")
	}
}

func TestOutcomeString(t *testing.T) {
	for oc, want := range map[Outcome]string{
		OutcomeDeliver: "deliver", OutcomeLoop: "loop",
		OutcomeNoRoute: "no-route", OutcomeLinkDown: "link-down",
	} {
		if oc.String() != want {
			t.Errorf("%d.String() = %q, want %q", oc, oc.String(), want)
		}
	}
}
