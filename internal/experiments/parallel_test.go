package experiments

import (
	"bytes"
	"testing"
)

// Progress lines go to a separate writer and must not leak into the
// report, and the summary line must report the pinned worker count.
func TestRunAllProgressSeparateFromReport(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode full sweep; skipped with -short")
	}
	var report, progress bytes.Buffer
	if err := RunAll(&report, Options{Quick: true, Workers: 2, Progress: &progress}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(report.Bytes(), []byte("done in")) {
		t.Fatal("progress lines leaked into the report")
	}
	if !bytes.Contains(progress.Bytes(), []byte("experiment t2")) {
		t.Fatalf("progress missing per-experiment lines:\n%s", progress.String())
	}
	if !bytes.Contains(progress.Bytes(), []byte("(workers=2)")) {
		t.Fatalf("progress missing summary line:\n%s", progress.String())
	}
}
