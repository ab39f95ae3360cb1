package experiments

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// goldenQuickSection extracts one experiment's report body from
// testdata/golden_quick.txt.
func goldenQuickSection(t *testing.T, id string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	body, ok := reportSection(data, id)
	if !ok {
		t.Fatalf("experiment %s not found in golden_quick.txt", id)
	}
	return body
}

// reportSection extracts the body of one experiment's section — the
// bytes after its "=== experiment id ===" header, up to the next
// header — from a RunAll report.
func reportSection(report []byte, id string) ([]byte, bool) {
	marker := fmt.Sprintf("\n=== experiment %s ===\n", id)
	start := bytes.Index(report, []byte(marker))
	if start < 0 {
		return nil, false
	}
	body := report[start+len(marker):]
	if end := bytes.Index(body, []byte("\n=== experiment ")); end >= 0 {
		body = body[:end]
	}
	return body, true
}

// TestHyperscaleFullScanMatchesGolden forces the hyperscale experiment
// — whose default is delta evaluation — through the full per-host
// scan on a sharded configuration and compares against
// the golden bytes (which were recorded with delta on). This is the
// headline identity: the delta tick, the analytic integration of
// quiescent hosts, and the bounded telemetry produce exactly the
// bytes a full scan does.
func TestHyperscaleFullScanMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a quick-mode hyperscale replay; skipped with -short")
	}
	want := goldenQuickSection(t, "hyper")
	var got bytes.Buffer
	if err := Run("hyper", &got, Options{Quick: true, Shards: 2, Delta: DeltaOff}); err != nil {
		t.Fatal(err)
	}
	diffAt(t, "hyper full-scan", got.Bytes(), want)
}

// hyperscaleQuickHeapBudget bounds the quick hyperscale run's heap
// growth. The quick fleet is ~400× smaller than the full one, so this
// asserts the memory-bounding machinery (pooled traces, telemetry
// caps, chunked SLA arena) at proportionally tiny scale; the full-run
// budget lives in the bench-hyperscale Makefile target.
const hyperscaleQuickHeapBudget = 256 << 20

// TestHyperscaleQuickHeapBudget runs the hyperscale experiment in
// quick mode and asserts the live heap stays under the budget — the
// guard that trace pooling or series caps cannot silently regress
// into per-VM copies.
func TestHyperscaleQuickHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a quick-mode hyperscale replay; skipped with -short")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	if err := Run("hyper", &buf, Options{Quick: true, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
	// HeapAlloc after a GC approximates live bytes; the delta versus
	// the pre-run baseline is what the run retains plus fragmentation
	// slack, far under the budget unless memory bounding broke.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > hyperscaleQuickHeapBudget {
		t.Fatalf("hyperscale quick grew live heap by %d MiB, budget %d MiB",
			grew>>20, int64(hyperscaleQuickHeapBudget)>>20)
	}
}
