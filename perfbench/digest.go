package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"agilepower"
)

// refsFile holds the reference digests: one per (workload, seed,
// cell), recorded with --record. Simulation inputs do not depend on
// the seed, so their references use seed 0; service-mix has the
// default seed 1 and the held-out seed 2.
const refsFile = "perfbench/refs.json"

//go:embed refs.json
var refsJSON []byte

// refs maps "workload/seed/cell" to the digest the cell must produce.
type refs map[string]string

func loadRefs() (refs, error) {
	r := refs{}
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("decoding embedded %s: %w", refsFile, err)
	}
	return r, nil
}

func refKey(workload string, seed uint64, cell string) string {
	return fmt.Sprintf("%s/%d/%s", workload, seed, cell)
}

// save merges recorded digests into the file on disk (run from the
// repository root).
func (r refs) save(recorded refs) error {
	for k, v := range recorded {
		r[k] = v
	}
	// encoding/json writes map keys sorted, so the file diffs cleanly.
	data, err := json.MarshalIndent(map[string]string(r), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsFile, append(data, '\n'), 0o644)
}

// digestResult hashes the simulated outcome of a run: everything a
// wall-clock-only change must leave identical. EvalTicks and HostEvals
// stay out because they legitimately differ between evaluation modes.
func digestResult(r *agilepower.Result) string {
	h := sha256.New()
	f := math.Float64bits
	fmt.Fprintf(h, "energy=%x sat=%x viol=%x unmet=%x\n",
		f(float64(r.Energy)), f(r.Satisfaction), f(r.ViolationFraction), f(r.UnmetCoreHours))
	fmt.Fprintf(h, "migrations started=%d completed=%d rejected=%d aborted=%d\n",
		r.Migrations.Started, r.Migrations.Completed, r.Manager.MigrationsFailed, r.Migrations.Aborted)
	fmt.Fprintf(h, "sleeps=%d wakes=%d events=%d dropped=%d stranded=%d\n",
		r.Sleeps, r.Wakes, r.Events.Len(), r.Events.Dropped(), r.StrandedVMs)
	for _, a := range r.Assertions {
		fmt.Fprintf(h, "assert %s violated=%t\n", a.Assert.String(), a.Violated)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// digestBytes hashes a response body.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// checker compares digests with the stored references, or, for a
// seed that has none, with the first digest seen for the same cell in
// this run, so every repetition must reproduce the first.
type checker struct {
	workload string
	seed     uint64
	refs     refs
	seen     refs
}

func newChecker(workload string, seed uint64, r refs) *checker {
	return &checker{workload: workload, seed: seed, refs: r, seen: refs{}}
}

// check returns an error when the digest for cell disagrees with its
// reference.
func (c *checker) check(cell, digest string) error {
	key := refKey(c.workload, c.seed, cell)
	first, seen := c.seen[key]
	if !seen {
		c.seen[key] = digest
	}
	if want, ok := c.refs[key]; ok && want != digest {
		return fmt.Errorf("%s: digest %s, reference %s", key, digest, want)
	}
	if seen && first != digest {
		return fmt.Errorf("%s: digest %s, earlier repetition %s", key, digest, first)
	}
	return nil
}

// referenced reports how many checked cells had a stored reference.
func (c *checker) referenced() int {
	n := 0
	for k := range c.seen {
		if _, ok := c.refs[k]; ok {
			n++
		}
	}
	return n
}
