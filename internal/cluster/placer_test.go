package cluster

import "testing"

func TestPlacersAssignments(t *testing.T) {
	weights := []float64{8, 7, 6, 5, 2, 2, 1, 1}
	block := BlockPlacer{}.Assign(weights, 2, 4)
	for i, n := range block {
		if n != i/4 {
			t.Fatalf("block assign = %v", block)
		}
	}
	rr := RoundRobinPlacer{}.Assign(weights, 2, 4)
	for i, n := range rr {
		if n != i%2 {
			t.Fatalf("round-robin assign = %v", rr)
		}
	}
	lpt := LPTPlacer{}.Assign(weights, 2, 4)
	// LPT must (near-)balance the node sums: 16 vs 16 here.
	if l := MaxNodeLoad(weights, lpt, 2); l > 16.5 {
		t.Fatalf("LPT max load = %v, want ≈16 (assign %v)", l, lpt)
	}
	if l := MaxNodeLoad(weights, block, 2); l < 25 {
		t.Fatalf("block max load = %v, want 26", l)
	}
	// Capacity respected.
	counts := map[int]int{}
	for _, n := range lpt {
		counts[n]++
	}
	for n, k := range counts {
		if k > 4 {
			t.Fatalf("node %d got %d ranks", n, k)
		}
	}
}

func TestPlacersCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity assignment did not panic")
		}
	}()
	LPTPlacer{}.Assign(make([]float64, 10), 2, 4)
}

// TestLPTAssignTable pins the greedy placement itself, including the
// capacity-full skip: once a node holds capacity ranks, later (lighter)
// ranks must spill to heavier-loaded nodes with room.
func TestLPTAssignTable(t *testing.T) {
	for _, tc := range []struct {
		name            string
		weights         []float64
		nodes, capacity int
		want            []int
	}{
		{
			name:    "classic LPT balance",
			weights: []float64{5, 4, 3, 2},
			nodes:   2, capacity: 2,
			// 5→n0, 4→n1, 3→n1 (4<5), 2→n0.
			want: []int{0, 1, 1, 0},
		},
		{
			name:    "capacity forces spill to the heavier node",
			weights: []float64{5, 4, 3, 2, 1, 1},
			nodes:   2, capacity: 3,
			// 5→n0, 4→n1, 3→n1, 2→n0, 1→n0 (tie keeps the first node),
			// filling n0; the last rank must skip full n0 and land on n1.
			want: []int{0, 1, 1, 0, 0, 1},
		},
		{
			name:    "single node takes everything",
			weights: []float64{1, 2, 3},
			nodes:   1, capacity: 3,
			want: []int{0, 0, 0},
		},
		{
			name:    "equal weights round out stably",
			weights: []float64{1, 1, 1, 1},
			nodes:   4, capacity: 1,
			want: []int{0, 1, 2, 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := LPTPlacer{}.Assign(tc.weights, tc.nodes, tc.capacity)
			if len(got) != len(tc.want) {
				t.Fatalf("Assign returned %d placements for %d ranks", len(got), len(tc.want))
			}
			count := make([]int, tc.nodes)
			for i, n := range got {
				if n != tc.want[i] {
					t.Fatalf("Assign = %v, want %v", got, tc.want)
				}
				count[n]++
			}
			for n, c := range count {
				if c > tc.capacity {
					t.Fatalf("node %d holds %d ranks, capacity %d", n, c, tc.capacity)
				}
			}
		})
	}
}
