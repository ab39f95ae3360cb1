package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// TestForkMatrixMatchesGolden replays the robust and ctrl experiments
// — fault injection, crash/repair churn and the imperfect control
// plane, the grids where every cell forks from one shared world
// prototype and the paths that stress the manager's incremental cache
// invalidation hardest — across the execution matrix: shards {1, 2, 4}
// × workers {1, 4} × delta {off, on}, comparing each report
// byte-for-byte against the golden. The golden bytes predate both
// incremental planning and world forking — the full-scan planner on
// cold-built worlds recorded them — so every passing cell proves both
// identical to those oracles under that execution mix. Under -race
// this doubles as the concurrency workout for the delta queues and
// due-heaps.
func TestForkMatrixMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("24 quick-mode experiment replays; skipped with -short")
	}
	for _, id := range []string{"robust", "ctrl"} {
		want := goldenQuickSection(t, id)
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				for _, delta := range []DeltaMode{DeltaOff, DeltaOn} {
					name := fmt.Sprintf("%s/shards=%d/workers=%d/delta=%v", id, shards, workers, delta == DeltaOn)
					t.Run(name, func(t *testing.T) {
						var got bytes.Buffer
						opts := Options{Quick: true, Shards: shards, Workers: workers, Delta: delta}
						if err := Run(id, &got, opts); err != nil {
							t.Fatal(err)
						}
						diffAt(t, name, got.Bytes(), want)
					})
				}
			}
		}
	}
}
