package local

import "fmt"

// Pairs is a pair system: item i occupies the two sides Key[i][0] and
// Key[i][1], and two items conflict iff they share a side. Graph edges
// occupy their endpoints; the virtual graphs of the paper's §4.2 occupy
// virtual node copies. Side IDs are dense, and each side lists its items
// in ascending item order, so an item's position in that list is its rank
// among the side's items. A Pairs is read-only once built.
type Pairs struct {
	// Key[i] holds the two (distinct) sides of item i.
	Key [][2]int32
	// Pos[i][x] is the position of item i in the item list of Key[i][x].
	Pos [][2]int32
	// start and items are the side lists in CSR form: side s lists
	// items[start[s]:start[s+1]].
	start, items []int32
}

// NewPairs builds the pair system of items occupying the side keys
// pairs[i]. Keys are densified in first-seen order. An item occupying one
// key on both sides would be a self-loop, which the paper's graphs exclude:
// it panics. Two items may share both keys (a multi-link).
func NewPairs(pairs [][2]int64) *Pairs {
	p := &Pairs{Key: make([][2]int32, len(pairs)), Pos: make([][2]int32, len(pairs))}
	dense := make(map[int64]int32, len(pairs))
	for i, pr := range pairs {
		if pr[0] == pr[1] {
			panic(fmt.Sprintf("local: item %d occupies key %d on both sides", i, pr[0]))
		}
		for x, k := range pr {
			s, ok := dense[k]
			if !ok {
				s = int32(len(dense))
				dense[k] = s
			}
			p.Key[i][x] = s
		}
	}
	p.start = make([]int32, len(dense)+1)
	for _, k := range p.Key {
		p.start[k[0]+1]++
		p.start[k[1]+1]++
	}
	for s := 1; s < len(p.start); s++ {
		p.start[s] += p.start[s-1]
	}
	p.items = make([]int32, 2*len(pairs))
	next := append([]int32(nil), p.start[:p.Sides()]...)
	for i, k := range p.Key {
		for x, s := range k {
			p.Pos[i][x] = next[s] - p.start[s]
			p.items[next[s]] = int32(i)
			next[s]++
		}
	}
	return p
}

// ActivePairs returns the pair system of the items i with active[i] (every
// item when active is nil), renumbered in ascending order, together with
// the original index of each.
func ActivePairs(pairs [][2]int64, active []bool) (*Pairs, []int32) {
	var kept [][2]int64
	var items []int32
	for i, pr := range pairs {
		if active == nil || active[i] {
			kept = append(kept, pr)
			items = append(items, int32(i))
		}
	}
	return NewPairs(kept), items
}

// Sub returns the pair system of the given items (ascending), renumbered
// in that order: item k of the result is item members[k] of p.
func (p *Pairs) Sub(members []int32) *Pairs {
	keys := make([][2]int64, len(members))
	for k, it := range members {
		keys[k] = [2]int64{int64(p.Key[it][0]), int64(p.Key[it][1])}
	}
	return NewPairs(keys)
}

// Sides returns the number of sides.
func (p *Pairs) Sides() int { return len(p.start) - 1 }

// Side returns the items occupying side s, in ascending order.
func (p *Pairs) Side(s int32) []int32 { return p.items[p.start[s]:p.start[s+1]] }

// sideLen returns the number of items occupying side s.
func (p *Pairs) sideLen(s int32) int32 { return p.start[s+1] - p.start[s] }

// Degree returns the conflict degree of item i: the other items on its two
// sides, an item sharing both counted twice (paper §2.1's deg(e)).
func (p *Pairs) Degree(i int) int {
	return int(p.sideLen(p.Key[i][0]) + p.sideLen(p.Key[i][1]) - 2)
}

// MaxDegree returns the largest item degree (0 for an empty system).
func (p *Pairs) MaxDegree() int {
	d := 0
	for i := range p.Key {
		d = max(d, p.Degree(i))
	}
	return d
}

// Topology returns the conflict topology: entity i is item i, and its
// ports lead to the other items of its first side in item order, then to
// those of its second side.
func (p *Pairs) Topology() *Topology {
	n := len(p.Key)
	t := &Topology{Ports: make([][]int32, n), Back: make([][]int32, n)}
	total := 0
	for i := range p.Key {
		total += p.Degree(i)
	}
	ports, back := make([]int32, 0, total), make([]int32, 0, total)
	for i, k := range p.Key {
		lo := len(ports)
		for x, s := range k {
			own := p.Pos[i][x]
			for at, f := range p.Side(s) {
				if int32(at) != own {
					ports = append(ports, f)
					back = append(back, p.port(f, s, own))
				}
			}
		}
		t.Ports[i], t.Back[i] = ports[lo:len(ports):len(ports)], back[lo:len(back):len(back)]
		t.MaxDeg = max(t.MaxDeg, len(ports)-lo)
	}
	return t
}

// port returns the port at item f of its link through side s to the item
// at position at of s.
func (p *Pairs) port(f, s, at int32) int32 {
	own, offset := p.Pos[f][0], int32(0)
	if p.Key[f][0] != s {
		own, offset = p.Pos[f][1], p.sideLen(p.Key[f][0])-1
	}
	if at < own {
		return offset + at
	}
	return offset + at - 1
}
