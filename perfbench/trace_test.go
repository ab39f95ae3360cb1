package main

import (
	"testing"
	"time"
)

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

// A parent's self time subtracts the union of its children's
// intervals: overlapping (concurrent) children count once, a child
// running past the parent is clipped, and grandchildren only reduce
// their own parent.
func TestSelfTimeNestedAndConcurrent(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 30),
		sp(3, 1, 20, 50), // concurrent with 2
		sp(4, 1, 90, 120),
		sp(5, 2, 12, 18), // nested in 2
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", "op", 0)
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder recorded a span")
	}
	r = newRecorder()
	root := r.begin("root", "op", 0)
	child := r.begin("child", "op", root)
	r.end(child)
	open := r.begin("open", "op", root)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != root || open == 0 {
		t.Fatalf("snapshot %+v: want the two closed spans, child under root", got)
	}
}
