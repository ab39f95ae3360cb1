package experiments

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// TestRunAllByteIdenticalAcrossShards is the sharded-evaluation
// determinism gate: the full quick-mode suite must render exactly the
// golden bytes at every shard count × worker count combination. The
// shard count changes which goroutine computes each host's partials;
// it must never change a single float in the serial host-ID-order
// reduction, and therefore never a report byte. Each cell compares
// every experiment's section in its own subtest, so a divergence
// names the experiment that moved and the other sections are still
// checked; the whole report is compared last, which also pins the
// section order and the bytes between sections.
func TestRunAllByteIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("several quick-mode full sweeps; skipped with -short")
	}
	want, err := os.ReadFile("testdata/golden_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			cell := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			t.Run(cell, func(t *testing.T) {
				var got bytes.Buffer
				if err := RunAll(&got, Options{Quick: true, Workers: workers, Shards: shards}); err != nil {
					t.Fatal(err)
				}
				for _, id := range IDs() {
					t.Run(id, func(t *testing.T) {
						wantSec, ok := reportSection(want, id)
						if !ok {
							t.Fatalf("experiment %s not found in golden_quick.txt", id)
						}
						gotSec, ok := reportSection(got.Bytes(), id)
						if !ok {
							t.Fatalf("experiment %s missing from the report", id)
						}
						diffAt(t, cell+"/"+id, gotSec, wantSec)
					})
				}
				diffAt(t, cell, got.Bytes(), want)
			})
		}
	}
}

// TestShardedFaultedExperimentsByteIdentical exercises the sharded
// evaluate under the two adversarial experiments — robust (injected
// faults: crashes strand VMs mid-tick) and ctrl (imperfect control
// plane: stale views, retried commands) — in both their dormant and
// active grid cells, and requires the sharded bytes to match the
// unsharded ones. Run under `make race`, this doubles as the race
// check for concurrent per-host evaluation during fault recovery and
// lossy command handling.
func TestShardedFaultedExperimentsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode experiment replays; skipped with -short")
	}
	for _, id := range []string{"robust", "ctrl"} {
		var base bytes.Buffer
		if err := Run(id, &base, Options{Quick: true}); err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		var sharded bytes.Buffer
		if err := Run(id, &sharded, Options{Quick: true, Shards: 4}); err != nil {
			t.Fatalf("%s sharded: %v", id, err)
		}
		diffAt(t, id+" sharded-vs-serial", sharded.Bytes(), base.Bytes())
	}
}
