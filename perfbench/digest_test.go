package main

import (
	"testing"
	"time"

	"agilepower"
)

// A result whose digest differs from its stored reference is a failed
// operation, and so is a repetition that differs from the first.
func TestPerturbedDigestCountsAsError(t *testing.T) {
	sc := agilepower.Scenario{Hosts: 2, VMs: agilepower.DiurnalFleet(4, 1), Horizon: time.Hour,
		Manager: agilepower.ManagerConfig{Policy: agilepower.DPMS3}}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := digestResult(res)
	if d != digestResult(res) {
		t.Fatal("digest is not a function of the result")
	}
	perturbed := []byte(d)
	perturbed[0] ^= 1
	chk := newChecker("w", 1, refs{refKey("w", 1, "a"): string(perturbed), refKey("w", 1, "b"): d})
	o := newOutcome(nil)
	for _, cell := range []string{"a", "b"} {
		o.attempted++
		if err := checkResult(res, cell, chk); err != nil {
			o.fail("%v", err)
		}
	}
	if o.failed != 1 || o.errorRate() != 0.5 {
		t.Fatalf("failed %d rate %g: want only the perturbed reference to fail", o.failed, o.errorRate())
	}
	if chk.referenced() != 2 {
		t.Fatalf("referenced %d, want 2", chk.referenced())
	}

	// No reference for seed 9: the first repetition is the reference.
	chk = newChecker("w", 9, refs{})
	if err := chk.check("a", d); err != nil {
		t.Fatal(err)
	}
	if err := chk.check("a", string(perturbed)); err == nil {
		t.Fatal("a repetition that differs from the first passed")
	}
}

func TestRefsDecode(t *testing.T) {
	if _, err := loadRefs(); err != nil {
		t.Fatal(err)
	}
}
