package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// The golden files under testdata were captured from the pre-rewrite
// simulation core (container/heap engine, per-event allocations, two-channel
// proc rendezvous). The zero-allocation core must reproduce them
// byte-for-byte: the performance work is not allowed to move a single
// metric. Regenerate deliberately with:
//
//	go run ./cmd/hpcsched table3 > internal/experiments/testdata/golden_table3.txt   (etc.)
//
// and justify the behaviour change in the PR.
var goldenTables = []struct {
	workload string
	file     string
}{
	{"metbench", "golden_table3.txt"},
	{"metbenchvar", "golden_table4.txt"},
	{"btmz", "golden_table5.txt"},
	{"siesta", "golden_table6.txt"},
}

// TestGoldenTableIII asserts byte-identical Table III output against the
// pre-rewrite golden, twice in the same process: the second run proves no
// cross-run state leaks through the event pool or the reused run-queue
// slices. It also runs under -race in CI.
func TestGoldenTableIII(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_table3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	first := RunTable("metbench", 42).Format()
	if first != string(want) {
		t.Fatalf("Table III output differs from pre-rewrite golden:\n got: %q\nwant: %q",
			first, want)
	}
	second := RunTable("metbench", 42).Format()
	if second != first {
		t.Fatal("Table III output differs between two runs in the same process")
	}
}

// TestGoldenAllTables extends the byte-identity check to every table the
// paper reports (Tables III-VI).
func TestGoldenAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep skipped in -short mode")
	}
	for _, g := range goldenTables[1:] { // table3 covered above
		g := g
		t.Run(g.workload, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			got := RunTable(g.workload, 42).Format()
			if got != string(want) {
				t.Fatalf("%s output differs from pre-rewrite golden", g.workload)
			}
		})
	}
}
