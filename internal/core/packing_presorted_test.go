package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"agilepower/internal/sim"
)

// referencePack is the packer as first written — a fresh map per bin,
// a reflective sort of a copy of the items on every call — kept as the
// oracle for the scratch-reusing, sort-once implementation.
func referencePack(items []Item, bins []Bin, kind PackKind) (Assignment, bool) {
	type state struct {
		bin     Bin
		cpuUsed float64
		memUsed float64
		groups  map[string]bool
	}
	fits := func(b *state, it Item) bool {
		if it.Group != "" && b.groups[it.Group] {
			return false
		}
		return b.cpuUsed+it.CPU <= b.bin.CPUCap+1e-9 && b.memUsed+it.MemGB <= b.bin.MemCap+1e-9
	}
	add := func(b *state, it Item) {
		b.cpuUsed += it.CPU
		b.memUsed += it.MemGB
		if it.Group != "" {
			if b.groups == nil {
				b.groups = make(map[string]bool)
			}
			b.groups[it.Group] = true
		}
	}
	states := make([]*state, len(bins))
	byKey := make(map[int]*state, len(bins))
	for i, b := range bins {
		st := &state{bin: b}
		for _, g := range b.Groups {
			if st.groups == nil {
				st.groups = make(map[string]bool)
			}
			st.groups[g] = true
		}
		states[i] = st
		byKey[b.Key] = st
	}
	order := append([]Item(nil), items...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].CPU != order[j].CPU {
			return order[i].CPU > order[j].CPU
		}
		return order[i].Key < order[j].Key
	})
	assign := make(Assignment, len(items))
	var movers []Item
	for _, it := range order {
		if st, ok := byKey[it.Current]; ok && fits(st, it) {
			add(st, it)
			assign[it.Key] = it.Current
			continue
		}
		movers = append(movers, it)
	}
	for _, it := range movers {
		var chosen *state
		switch kind {
		case PackBFD:
			bestSlack := 0.0
			for _, st := range states {
				if !fits(st, it) {
					continue
				}
				slack := st.bin.CPUCap - st.cpuUsed - it.CPU
				if chosen == nil || slack < bestSlack {
					chosen = st
					bestSlack = slack
				}
			}
		default:
			for _, st := range states {
				if fits(st, it) {
					chosen = st
					break
				}
			}
		}
		if chosen == nil {
			return nil, false
		}
		add(chosen, it)
		assign[it.Key] = chosen.bin.Key
	}
	return assign, true
}

// randomPacking draws one packing instance: a few dozen items with
// repeated CPU sizes (so the key tie-break matters), anti-affinity
// groups on items and on bins, and current bins that may or may not be
// among the candidates.
func randomPacking(rng *sim.RNG) ([]Item, []Bin) {
	groups := []string{"", "", "", "db", "web", "cache"}
	sizes := []float64{0.25, 0.5, 1, 1.5, 2}
	nBins := rng.Intn(12) + 1
	bins := make([]Bin, nBins)
	for i := range bins {
		b := Bin{Key: 100 + i, CPUCap: rng.Range(2, 12), MemCap: rng.Range(8, 64)}
		for _, g := range groups[3:] {
			if rng.Bernoulli(0.15) {
				b.Groups = append(b.Groups, g)
			}
		}
		bins[i] = b
	}
	items := make([]Item, rng.Intn(40))
	for i := range items {
		cpu := sizes[rng.Intn(len(sizes))]
		if rng.Bernoulli(0.5) {
			cpu = rng.Range(0, 3)
		}
		cur := -1
		if rng.Bernoulli(0.7) {
			cur = 100 + rng.Intn(nBins+4) // sometimes a bin not offered
		}
		items[i] = Item{
			Key:     1000 - 7*i, // keys unrelated to input order
			CPU:     cpu,
			MemGB:   rng.Range(0.5, 8),
			Current: cur,
			Group:   groups[rng.Intn(len(groups))],
		}
	}
	return items, bins
}

// TestPresortedPackMatchesPack is the property test of the packer's
// sort-once paths: across random items, bins, groups and both
// heuristics, the pre-sorted pack run on one long-lived packer (as the
// manager runs it) returns exactly Pack's assignment and feasibility,
// Pack matches the reference packer, and MinBins returns exactly what
// a per-prefix Pack loop returns.
func TestPresortedPackMatchesPack(t *testing.T) {
	rng := sim.NewRNG(2024)
	var p packer // reused across every instance, like the manager's
	feasible, infeasible := 0, 0
	for trial := 0; trial < 600; trial++ {
		items, bins := randomPacking(rng)
		for _, kind := range []PackKind{PackFFD, PackBFD} {
			name := fmt.Sprintf("trial %d %v", trial, kind)
			want, wantOK := referencePack(items, bins, kind)
			got, gotOK := Pack(items, bins, kind)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Pack = %v %v, reference %v %v", name, got, gotOK, want, wantOK)
			}
			order := p.sortItems(items)
			ok := p.packSorted(order, bins, kind)
			if ok != wantOK {
				t.Fatalf("%s: pre-sorted pack ok=%v, Pack ok=%v", name, ok, wantOK)
			}
			if ok {
				feasible++
				if a := p.assignment(order); !reflect.DeepEqual(a, want) {
					t.Fatalf("%s: pre-sorted pack assigned %v, Pack %v", name, a, want)
				}
			} else {
				infeasible++
			}

			wantK, wantAssign, wantMinOK := len(bins), Assignment(nil), false
			for k := 0; k <= len(bins); k++ {
				if a, ok := Pack(items, bins[:k], kind); ok {
					wantK, wantAssign, wantMinOK = k, a, true
					break
				}
			}
			k, a, ok := MinBins(items, bins, kind)
			if k != wantK || ok != wantMinOK || !reflect.DeepEqual(a, wantAssign) {
				t.Fatalf("%s: MinBins = (%d, %v, %v), per-prefix Pack (%d, %v, %v)",
					name, k, a, ok, wantK, wantAssign, wantMinOK)
			}
			if k2, ok2 := p.minBins(items, bins, kind); k2 != wantK || ok2 != wantMinOK {
				t.Fatalf("%s: reused packer minBins = (%d, %v), want (%d, %v)", name, k2, ok2, wantK, wantMinOK)
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("instances were all one kind: %d feasible, %d infeasible", feasible, infeasible)
	}
}
