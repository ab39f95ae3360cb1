package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// The placement planner answers: given forecast per-VM demand, which
// hosts should be active and where should each VM run? It is a
// two-constraint (CPU with headroom, memory strict) bin-packing with a
// minimal-moves bias: VMs stay where they are whenever their current
// host is among the chosen bins and still fits, so consolidation churn
// stays comparable to base DRM — the paper's "comparable overheads"
// claim depends on this.

// Item is one VM to place.
type Item struct {
	// Key identifies the VM.
	Key int
	// CPU is the forecast demand in cores.
	CPU float64
	// MemGB is the VM memory footprint.
	MemGB float64
	// Current is the bin key of the host the VM currently runs on
	// (negative if none).
	Current int
	// Group is the item's anti-affinity group: two items with the same
	// non-empty group never share a bin.
	Group string
}

// Bin is one candidate host.
type Bin struct {
	// Key identifies the host.
	Key int
	// CPUCap is usable CPU: host cores × target utilization headroom.
	CPUCap float64
	// MemCap is usable memory in GB.
	MemCap float64
	// Groups lists anti-affinity groups already present on the host
	// (from residents that are not packing items); items of these
	// groups cannot land here.
	Groups []string
}

// Assignment maps item keys to bin keys.
type Assignment map[int]int

// PackKind selects the bin-packing heuristic for items that must move.
type PackKind int

const (
	// PackFFD is first-fit-decreasing: items in decreasing CPU order,
	// each into the first bin with room.
	PackFFD PackKind = iota
	// PackBFD is best-fit-decreasing: each item into the feasible bin
	// with the least CPU slack remaining.
	PackBFD
)

// String names the heuristic.
func (k PackKind) String() string {
	switch k {
	case PackFFD:
		return "ffd"
	case PackBFD:
		return "bfd"
	default:
		return "pack?"
	}
}

type binState struct {
	bin     Bin
	cpuUsed float64
	memUsed float64
	groups  map[string]bool
}

func (b *binState) fits(it Item) bool {
	if it.Group != "" && b.groups[it.Group] {
		return false
	}
	return b.cpuUsed+it.CPU <= b.bin.CPUCap+1e-9 && b.memUsed+it.MemGB <= b.bin.MemCap+1e-9
}

func (b *binState) add(it Item) {
	b.cpuUsed += it.CPU
	b.memUsed += it.MemGB
	if it.Group != "" {
		b.addGroup(it.Group)
	}
}

func (b *binState) addGroup(g string) {
	if b.groups == nil {
		b.groups = make(map[string]bool)
	}
	b.groups[g] = true
}

// packOrder is the packer's deterministic processing order: decreasing
// CPU, ties by key. Item keys are unique, so it is a strict total order
// and every sort of the same items lands in the same sequence.
func packOrder(a, b Item) int {
	switch {
	case a.CPU > b.CPU:
		return -1
	case a.CPU < b.CPU:
		return 1
	}
	return cmp.Compare(a.Key, b.Key)
}

// packer holds the packing heuristics' working state. A long-lived
// packer reuses it across calls, which keeps the manager's repeated
// drain and consolidation packs off the heap; the zero value is ready.
type packer struct {
	order  []Item      // sorted copy of the items (sortItems)
	states []binState  // one per bin of the current pack
	byKey  map[int]int // bin key -> index into states
	movers []int       // indices into the order that must move
	to     []int       // to[i]: bin key order[i] was assigned
}

// sortItems copies items into packing order.
func (p *packer) sortItems(items []Item) []Item {
	p.order = append(p.order[:0], items...)
	slices.SortFunc(p.order, packOrder)
	return p.order
}

// packSorted is Pack over items already in packOrder. On success p.to
// holds each item's bin key, aligned with order.
func (p *packer) packSorted(order []Item, bins []Bin, kind PackKind) bool {
	if p.byKey == nil {
		p.byKey = make(map[int]int, len(bins))
	}
	clear(p.byKey)
	p.states = slices.Grow(p.states[:0], len(bins))[:len(bins)]
	states := p.states
	for i, b := range bins {
		st := &states[i]
		*st = binState{bin: b, groups: st.groups} // keep the map, not its contents
		clear(st.groups)
		for _, g := range b.Groups {
			st.addGroup(g)
		}
		p.byKey[b.Key] = i
	}
	p.to = slices.Grow(p.to[:0], len(order))[:len(order)]
	movers := p.movers[:0]
	// Pass 1: sticky placement on the current bin.
	for i, it := range order {
		if j, ok := p.byKey[it.Current]; ok && states[j].fits(it) {
			states[j].add(it)
			p.to[i] = it.Current
			continue
		}
		movers = append(movers, i)
	}
	p.movers = movers
	// Pass 2: pack the movers.
	for _, i := range movers {
		it := order[i]
		chosen := -1
		switch kind {
		case PackBFD:
			bestSlack := 0.0
			for j := range states {
				st := &states[j]
				if !st.fits(it) {
					continue
				}
				slack := st.bin.CPUCap - st.cpuUsed - it.CPU
				if chosen < 0 || slack < bestSlack {
					chosen = j
					bestSlack = slack
				}
			}
		default: // PackFFD
			for j := range states {
				if states[j].fits(it) {
					chosen = j
					break
				}
			}
		}
		if chosen < 0 {
			return false
		}
		states[chosen].add(it)
		p.to[i] = states[chosen].bin.Key
	}
	return true
}

// assignment turns the last successful pack of order into a map.
func (p *packer) assignment(order []Item) Assignment {
	assign := make(Assignment, len(order))
	for i, it := range order {
		assign[it.Key] = p.to[i]
	}
	return assign
}

// minBins is MinBins without the assignment map. The items are sorted
// once, on the first prefix that passes the capacity bound; on success
// p.order and p.to describe the packing into bins[:k].
func (p *packer) minBins(items []Item, bins []Bin, kind PackKind) (k int, ok bool) {
	if len(items) == 0 {
		return 0, true
	}
	// Lower bound from aggregate capacity, to skip infeasible prefixes.
	needCPU, needMem := 0.0, 0.0
	for _, it := range items {
		needCPU += it.CPU
		needMem += it.MemGB
	}
	var order []Item
	cumCPU, cumMem := 0.0, 0.0
	for k = 1; k <= len(bins); k++ {
		cumCPU += bins[k-1].CPUCap
		cumMem += bins[k-1].MemCap
		if cumCPU+1e-9 < needCPU || cumMem+1e-9 < needMem {
			continue
		}
		if order == nil {
			order = p.sortItems(items)
		}
		if p.packSorted(order, bins[:k], kind) {
			return k, true
		}
	}
	return len(bins), false
}

// Pack assigns every item to a bin, keeping items on their current bin
// when possible and packing the rest with the chosen heuristic. It
// reports ok=false if some item cannot be placed (the chosen bin set
// is too small).
func Pack(items []Item, bins []Bin, kind PackKind) (Assignment, bool) {
	var p packer
	order := p.sortItems(items)
	if !p.packSorted(order, bins, kind) {
		return nil, false
	}
	return p.assignment(order), true
}

// Moves returns the item keys whose assignment differs from their
// current bin, in deterministic (ascending key) order.
func Moves(items []Item, assign Assignment) []int {
	var out []int
	for _, it := range items {
		if to, ok := assign[it.Key]; ok && to != it.Current {
			out = append(out, it.Key)
		}
	}
	sort.Ints(out)
	return out
}

// MinBins returns the smallest prefix length k of bins such that all
// items pack into bins[:k], and the corresponding assignment. Bins
// should be pre-ordered by preference (e.g. currently-loaded hosts
// first to minimize migrations). Returns ok=false if even all bins are
// insufficient.
func MinBins(items []Item, bins []Bin, kind PackKind) (k int, assign Assignment, ok bool) {
	if len(items) == 0 {
		return 0, Assignment{}, true
	}
	var p packer
	if k, ok = p.minBins(items, bins, kind); !ok {
		return k, nil, false
	}
	return k, p.assignment(p.order), true
}

// Validate sanity-checks the planner inputs.
func Validate(items []Item, bins []Bin) error {
	seen := make(map[int]bool, len(bins))
	for _, b := range bins {
		if b.CPUCap < 0 || b.MemCap < 0 {
			return fmt.Errorf("core: bin %d has negative capacity", b.Key)
		}
		if seen[b.Key] {
			return fmt.Errorf("core: duplicate bin key %d", b.Key)
		}
		seen[b.Key] = true
	}
	seenIt := make(map[int]bool, len(items))
	for _, it := range items {
		if it.CPU < 0 || it.MemGB < 0 {
			return fmt.Errorf("core: item %d has negative size", it.Key)
		}
		if seenIt[it.Key] {
			return fmt.Errorf("core: duplicate item key %d", it.Key)
		}
		seenIt[it.Key] = true
	}
	return nil
}
