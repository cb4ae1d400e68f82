package local

// Induced builds the subtopology containing the entities with keep[i]=true
// and, among the surviving links, those for which keepLink(i, p) returns true
// when evaluated at either endpoint (keepLink may be nil to keep all links
// between kept entities). Links are kept only if both endpoints are kept.
//
// It returns the new topology, orig (mapping new entity index -> original
// index) and sub (mapping original index -> new index, −1 if dropped).
//
// In the LOCAL model, running a protocol on an induced subtopology is
// exactly the standard "run on the subgraph" step: non-participating
// entities stay silent, and participating entities ignore links to
// non-participants, which each entity can decide locally.
func Induced(t *Topology, keep []bool, keepLink func(i, p int) bool) (*Topology, []int, []int) {
	n := t.N()
	sub := make([]int, n)
	orig := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if keep[i] {
			sub[i] = len(orig)
			orig = append(orig, i)
		} else {
			sub[i] = -1
		}
	}
	nt := &Topology{
		Ports: make([][]int32, len(orig)),
		Back:  make([][]int32, len(orig)),
	}
	// newPort[original entity][original port] = new port index or -1.
	// Built on the fly: for entity i, the kept ports in original order get
	// consecutive new indices, so a link's new back-pointer is the rank of
	// the original back-port among kept ports at the neighbor.
	kept := func(i, p int) bool {
		j := int(t.Ports[i][p])
		if !keep[i] || !keep[j] {
			return false
		}
		if keepLink == nil {
			return true
		}
		return keepLink(i, p) && keepLink(j, int(t.Back[i][p]))
	}
	rank := make([][]int32, n) // rank[i][p] = new port index at i, or -1
	for _, oi := range orig {
		r := make([]int32, len(t.Ports[oi]))
		c := int32(0)
		for p := range t.Ports[oi] {
			if kept(oi, p) {
				r[p] = c
				c++
			} else {
				r[p] = -1
			}
		}
		rank[oi] = r
		ni := sub[oi]
		nt.Ports[ni] = make([]int32, 0, c)
		nt.Back[ni] = make([]int32, 0, c)
	}
	for _, oi := range orig {
		ni := sub[oi]
		for p := range t.Ports[oi] {
			if rank[oi][p] < 0 {
				continue
			}
			oj := int(t.Ports[oi][p])
			nt.Ports[ni] = append(nt.Ports[ni], int32(sub[oj]))
			nt.Back[ni] = append(nt.Back[ni], rank[oj][t.Back[oi][p]])
		}
		if d := len(nt.Ports[ni]); d > nt.MaxDeg {
			nt.MaxDeg = d
		}
	}
	return nt, orig, sub
}
